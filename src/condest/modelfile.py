"""Model files: one text format for grammars, taggers and shift-reduce models.

A file is a run of ``[name]`` header lines, each followed by tab-separated
rows.  The module owning a model declares its schema: section name -> a
tuple of field converters (each a callable that raises ValueError on bad
text), or a dict key -> converter for a section of ``key<TAB>value`` rows
with every key exactly once.  Every section is always present, and has at
least two fields, so a header never contains a tab and a row always does:
any symbol round-trips, including one that starts with ``[``.  A row's
fields before its first ``number`` are its key, unique in the section.
"""

import math


def number(text):
    """A finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def one_of(*choices):
    def convert(text):
        if text not in choices:
            raise ValueError("expected one of %s" % ", ".join(choices))
        return text
    return convert


def context(width):
    """A space-joined context of ``width`` symbols, read as a tuple."""
    def convert(text):
        ctx = tuple(text.split(" "))
        if len(ctx) != width:
            raise ValueError("context %r has %d fields, expected %d"
                             % (text, len(ctx), width))
        return ctx
    return convert


def write(path, sections):
    """Write (name, rows) pairs; float fields keep 17 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        for name, rows in sections:
            f.write("[%s]\n" % name)
            for row in rows:
                f.write("\t".join("%.17g" % v if isinstance(v, float)
                                  else str(v) for v in row) + "\n")


def read(path, schema, error):
    """{section: row tuples, or a dict for a keyed section} from ``path``.

    Every section of ``schema`` must appear once.  A defect raises
    ``error``, the owning module's exception class, prefixed ``path:line``.
    """
    out, headers, section, seen = {}, {}, None, {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            where = "%s:%d" % (path, lineno)
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                name = line[1:-1] if line[:1] + line[-1:] == "[]" else None
                if name not in schema or name in out:
                    raise error("%s: neither a row nor a new section header "
                                "of this model: %r" % (where, line))
                fields, headers[name] = schema[name], lineno
                section = out[name] = {} if isinstance(fields, dict) else []
                continue
            if section is None:
                raise error("%s: row before any [section] header" % where)
            values = line.split("\t")
            convs = fields
            if isinstance(section, dict):
                if values[0] not in fields or values[0] in section:
                    raise error("%s: unknown or repeated key %r"
                                % (where, values[0]))
                convs = (str, fields[values[0]])
            if len(values) != len(convs):
                raise error("%s: malformed row: %d tab-separated fields, "
                            "expected %d" % (where, len(values), len(convs)))
            try:
                row = tuple(c(v) for c, v in zip(convs, values))
            except ValueError as e:
                raise error("%s: bad field in %r: %s" % (where, line, e)) \
                    from None
            if isinstance(section, dict):
                section[row[0]] = row[1]
                continue
            key = (name, row[:convs.index(number)])
            if seen.setdefault(key, lineno) != lineno:
                raise error("%s: repeats the row of line %d: %r"
                            % (where, seen[key], line))
            section.append(row)
    for name, fields in schema.items():
        if name not in out:
            raise error("%s: no [%s] section" % (path, name))
        missing = sorted(set(fields) - set(out[name])) \
            if isinstance(fields, dict) else ()
        if missing:
            raise error("%s:%d: [%s] lacks key %r"
                        % (path, headers[name], name, missing[0]))
    return out


def table_rows(table, outcome=str):
    """A CondTable's rows in its entry order, so a loaded table counts them
    in the order of the saved one: space-joined context, outcome, count."""
    return [(" ".join(ctx), outcome(out), c) for ctx, out, c in table.items()]
