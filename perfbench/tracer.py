"""Span tracing installed from outside the library.

Each target is a public function (or a distinguisher method) of a
``securejscc`` module. :meth:`Tracer.install` replaces it with a wrapper in
every ``securejscc`` module namespace that binds it, so calls made through
``from .modem import soft_demodulate`` are traced as well as calls made
through ``modem.soft_demodulate``. :meth:`Tracer.uninstall` puts the
originals back, so untraced rounds run the unmodified program.

A span is a name, a start, an end and the index of its parent span. Spans
are appended to flat arrays while the program runs and reduced to per-name
call counts and self times when :meth:`Tracer.summary` is called. Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute). The four metric functions share one span
# name, the "metrics" layer.
TARGETS = (
    ("pipeline.sweep", "pipeline", "sweep"),
    ("pipeline.transmit", "pipeline", "transmit"),
    ("pipeline.transmit_latent", "pipeline", "transmit_latent"),
    ("pipeline.records_to_csv", "pipeline", "records_to_csv"),
    ("training.train_codec", "training", "train_codec"),
    ("training.train_step", "training", "train_step"),
    ("training.evaluate", "training", "evaluate"),
    ("modem.modulate", "modem", "modulate"),
    ("modem.awgn", "modem", "awgn"),
    ("modem.soft_demodulate", "modem", "soft_demodulate"),
    ("lwe.keygen", "lwe", "keygen"),
    ("lwe.derive_errors", "lwe", "derive_errors"),
    ("lwe.encrypt", "lwe", "encrypt"),
    ("lwe.decrypt", "lwe", "decrypt"),
    ("lwe.decrypt_noisy", "lwe", "decrypt_noisy"),
    ("lwe.sample_discrete_gaussian", "lwe", "sample_discrete_gaussian"),
    ("lwe.centered", "lwe", "centered"),
    ("quantizer.hard_quantize", "quantizer", "hard_quantize"),
    ("quantizer.soft_dequantize", "quantizer", "soft_dequantize"),
    ("quantizer.soft_quantize_jacobian", "quantizer", "soft_quantize_jacobian"),
    ("codec.encode", "codec", "encode"),
    ("codec.decode", "codec", "decode"),
    ("codec.encode_backward", "codec", "encode_backward"),
    ("codec.decode_backward", "codec", "decode_backward"),
    ("codec.adam_step", "codec", "adam_step"),
    ("rng.stream", "rng", "stream"),
    ("security.run_ind_cpa_game", "security", "run_ind_cpa_game"),
    ("security.run_cpa_attack", "security", "run_cpa_attack"),
    ("security.marginal_chisq.prepare", "security", "MarginalChiSquare.prepare"),
    ("security.marginal_chisq.guess", "security", "MarginalChiSquare.guess"),
    ("security.trained_classifier.prepare", "security",
     "TrainedClassifier.prepare"),
    ("security.trained_classifier.guess", "security", "TrainedClassifier.guess"),
    ("metrics", "metrics", "mse"),
    ("metrics", "metrics", "psnr"),
    ("metrics", "metrics", "ssim"),
    ("metrics", "metrics", "ms_ssim"),
    ("datasets.synthesize_dataset", "datasets", "synthesize_dataset"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
PACKAGE = "securejscc"
DEMOD = "modem.soft_demodulate"
DEMOD_SAMPLES_PER_SNR = 2  # receiver inputs kept per SNR for support_frac
SUPPORT_THRESHOLD = 1e-12


def snr_label(sigma2: float, avg_power: float) -> str:
    snr_db = round(-10.0 * math.log10(sigma2 / avg_power), 6) + 0.0  # no "-0"
    return f"snr_{snr_db:g}"


class Tracer:
    """In-memory span recorder with wrappers installed from outside."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.stack: list[int] = []
        # (span index, sigma2, symbols) per soft_demodulate call
        self.demod_calls: list[tuple[int, float, int]] = []
        # sigma2 -> [(y_hat, constellation, sigma2, sigma_l)] receiver inputs
        self.demod_inputs: dict[float, list] = {}
        self.sites: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self._bind()

    def _bind(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for span, mod_name, attr in TARGETS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = (vars(owner).get(fn_name)
                        if owner is not None and isinstance(owner, type)
                        else getattr(owner, fn_name, None))
            if not callable(original):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(self.name_ids[span], original,
                                 demod=span == DEMOD)
            if owner_name:
                self.sites.append((owner, fn_name, original, wrapper))
                continue
            for m in modules:
                for bound_name, value in list(vars(m).items()):
                    if value is original:
                        self.sites.append((m, bound_name, original, wrapper))

    def _wrap(self, name_id: int, fn, demod: bool):
        start, end, parent, name, stack = (self.start, self.end, self.parent,
                                           self.name, self.stack)
        clock = time.perf_counter
        signature = inspect.signature(fn) if demod else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(name_id)
            end.append(0.0)
            if demod:
                self._record_demod(idx, signature.bind(*args, **kwargs))
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _record_demod(self, idx: int, bound: inspect.BoundArguments) -> None:
        bound.apply_defaults()
        args = bound.arguments
        y_hat = np.asarray(args["y_hat"])
        sigma2 = float(args["sigma2"])
        self.demod_calls.append((idx, sigma2, int(y_hat.size)))
        kept = self.demod_inputs.setdefault(sigma2, [])
        if len(kept) < DEMOD_SAMPLES_PER_SNR:
            kept.append((y_hat.copy(), args["cons"], sigma2,
                         float(args["sigma_l"])))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)

    def self_times(self) -> np.ndarray:
        """Self time in seconds of every recorded span."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def summary(self, avg_power: float) -> dict:
        """Per-name calls and self_ms, plus per-SNR demodulator figures."""
        self_s = self.self_times()
        names = np.frombuffer(self.name, dtype=np.int64)
        calls = np.bincount(names, minlength=len(SPAN_NAMES))
        self_ms = np.bincount(names, weights=self_s,
                              minlength=len(SPAN_NAMES)) * 1e3
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_ms"] = float(self_ms[i])
        per_snr: dict[str, list[float]] = {}
        for idx, sigma2, symbols in self.demod_calls:
            acc = per_snr.setdefault(snr_label(sigma2, avg_power), [0.0, 0])
            acc[0] += self_s[idx] * 1e3
            acc[1] += symbols
        demod = {"ms_per_symbol": {k: v[0] / v[1] for k, v in per_snr.items()},
                 "support_frac": {snr_label(s2, avg_power): support_fraction(kept)
                                  for s2, kept in self.demod_inputs.items()}}
        return {"layers": out, "demod": demod}


def support_fraction(kept: list) -> float:
    """Share of the p softmax weights above SUPPORT_THRESHOLD, per symbol.

    Recomputes the receiver's softmax weights from recorded inputs, after
    timing has ended: useful work over attempted work for a demodulator
    that evaluates every constellation point.
    """
    fractions = []
    for y_hat, cons, sigma2, sigma_l in kept:
        y = y_hat.reshape(-1)
        d2 = np.abs(y[:, None] - cons.points[None, :]) ** 2
        scores = sigma_l * np.exp(-d2 / sigma2) / (math.pi * sigma2)
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        fractions.append(float(np.mean(w > SUPPORT_THRESHOLD)))
    return float(np.mean(fractions)) if fractions else 0.0
