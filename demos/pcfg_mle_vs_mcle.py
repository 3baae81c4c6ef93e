"""Joint vs conditional estimation for a PCFG, on the bundled toy corpus.

The relative-frequency (MLE) grammar maximizes the joint likelihood of the
treebank.  Gradient ascent on the conditional likelihood (MCLE) starts from
the MLE and trades marginal string likelihood for a better fit of trees
given strings.  This script fits both and prints the three log-likelihood
decompositions plus PARSEVAL scores on a held-out sample.

Run:  python3 demos/pcfg_mle_vs_mcle.py
"""

from condest import toydata
from condest.evaluation import score_corpus
from condest.pcfg import (AscentConfig, corpus_stats, estimate_mcle,
                          estimate_mle, extract_counts, viterbi_parse)
from condest.trees import tree_yield

train = toydata.pcfg_train_corpus()
test = toydata.pcfg_test_corpus()

mle = estimate_mle(extract_counts(train))
trace = []
mcle = estimate_mcle(train, mle, AscentConfig(), trace=trace)

print("gradient ascent took %d accepted steps; CLL %.4f -> %.4f"
      % (len(trace) - 1, trace[0], trace[-1]))
print()
print("%-28s %12s %12s" % ("rule", "MLE", "MCLE"))
for rule in sorted(mle.theta):
    print("%-28s %12.6f %12.6f" % (rule, mle.theta[rule], mcle.theta[rule]))
print()

print("%-16s %12s %12s" % ("(train sums)", "MLE", "MCLE"))
rows = {}
for name, g in (("MLE", mle), ("MCLE", mcle)):
    tlp, marg, _ = corpus_stats(g, train)
    rows[name] = (-tlp, -(tlp - marg), -marg)
for i, metric in enumerate(("-log P(y)", "-log P(y|x)", "-log P(x)")):
    print("%-16s %12.4f %12.4f" % (metric, rows["MLE"][i], rows["MCLE"][i]))
print()
print("note: the MLE minimizes -log P(y) = -log P(y|x) - log P(x), so the")
print("MCLE's gain in P(y|x) necessarily comes at a cost in P(x).")
print()

for name, g in (("MLE", mle), ("MCLE", mcle)):
    pred = [viterbi_parse(g, tree_yield(t)) for t in test]
    rep = score_corpus(list(test), pred)
    print("%-5s labelled P/R/F on %d test trees: %.4f / %.4f / %.4f"
          % (name, len(test), rep.precision, rep.recall, rep.f_score))
