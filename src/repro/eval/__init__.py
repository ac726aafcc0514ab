"""Evaluation metrics: perplexity (Fig. 11a) and BLEU (Fig. 11b)."""

from repro.eval.perplexity import perplexity, perplexity_curve
from repro.eval.bleu import bleu, sentence_ngrams
from repro.eval.decode import teacher_forced_argmax
from repro.eval.accuracy import span_exact_match, span_f1, token_accuracy

__all__ = [
    "perplexity",
    "perplexity_curve",
    "bleu",
    "sentence_ngrams",
    "teacher_forced_argmax",
    "token_accuracy",
    "span_exact_match",
    "span_f1",
]
