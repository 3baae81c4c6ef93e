"""The four bitag chain models, trained and compared on the bundled data.

All four factor the sequence probability over positions with end-markers at
both boundaries; they differ only in the per-edge factor:

  joint          P(t | t_prev) * P(w | t)
  conditional    Pr0(t | w, t_prev)                (smoothed, sums to 1)
  joint-prevword P(w | t) * Pr1(t | w_prev, t_prev)
  joint-nextemit Pr0(t | w, t_prev) * P(w | t_prev)

Pr0 and Pr1 are deleted-interpolation mixtures whose bucketed weights are
fitted on held-out data by EM.  Decoding picks each position's maximum
posterior marginal from a single forward-backward pass.

Run:  python3 demos/tagger_variants.py
"""

from condest import toydata
from condest.hmm import VARIANTS, TaggerModel, tagging_accuracy

train, heldout, test = toydata.hmm_corpora()
gold = [tags for _w, tags in test]

print("training on %d sentences, %d heldout, %d test"
      % (len(train), len(heldout), len(test)))
print()
print("%-16s %8s" % ("variant", "accuracy"))
for variant in VARIANTS:
    model = TaggerModel.train(variant, train, heldout)
    pred = [model.posterior_decode(words) for words, _t in test]
    print("%-16s %8.4f" % (variant, tagging_accuracy(pred, gold)))
print()

model = TaggerModel.train("conditional", train, heldout)
print("fitted interpolation weights (bucket -> lambda_word, lambda_tag,")
print("lambda_full), buckets by log2 of the full-context count:")
for b in sorted(model.mixture.lambdas):
    print("  %2d -> %s" % (b, " ".join("%.3f" % l
                                       for l in model.mixture.lambdas[b])))
