"""Content/style generative process with paired views and the
block-identifiability experiment.

A pair shares its content block exactly; a random subset of style
coordinates is redrawn around the original style values.  The experiment
trains an InfoNCE encoder on pairs and scores content/style recovery with
kernel-ridge R^2 against the ground-truth latents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .flow import EncoderMlp, TrainConfig, train_align_maxent
from .metrics import KrrConfig, MetricReport, config_hash, krr_r2
from .mixing import MixingMap
from .rng import child_seed, spawn


@dataclass(frozen=True)
class MultiViewProcess:
    """Gaussian content, affine-Gaussian style given content, and a shared
    invertible mixing into observations.

    Content occupies the first ``n_c`` latent coordinates.  For each pair,
    every style coordinate flips an independent coin with probability
    ``change_prob``; selected coordinates are redrawn from a Gaussian
    centered at the original style value.
    """

    n_c: int
    n_s: int
    cov_c: np.ndarray
    style_offset: np.ndarray
    style_coef: np.ndarray      # B, maps content -> style mean contribution
    cov_s: np.ndarray
    change_prob: float
    change_var: np.ndarray      # diagonal of the style perturbation covariance
    mixing: MixingMap

    def __post_init__(self):
        for name in ("cov_c", "cov_s"):
            c = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, c)
            try:
                np.linalg.cholesky(c)
            except np.linalg.LinAlgError as exc:
                raise ConfigError(f"{name} must be positive definite") from exc
        object.__setattr__(self, "style_offset",
                           np.asarray(self.style_offset, dtype=float))
        object.__setattr__(self, "style_coef",
                           np.asarray(self.style_coef, dtype=float))
        object.__setattr__(self, "change_var",
                           np.asarray(self.change_var, dtype=float))
        if self.cov_c.shape != (self.n_c, self.n_c):
            raise ConfigError("content covariance shape mismatch")
        if self.cov_s.shape != (self.n_s, self.n_s):
            raise ConfigError("style covariance shape mismatch")
        if self.style_coef.shape != (self.n_s, self.n_c):
            raise ConfigError("style coefficient shape mismatch")
        if self.style_offset.shape != (self.n_s,):
            raise ConfigError("style offset shape mismatch")
        if self.change_var.shape != (self.n_s,) or np.any(self.change_var <= 0):
            raise ConfigError("style change variance must be positive per coordinate")
        if not 0.0 < self.change_prob <= 1.0:
            raise ConfigError("change_prob must lie in (0, 1]")
        if self.mixing.n != self.n_c + self.n_s:
            raise ConfigError("mixing dimension must equal n_c + n_s")

    @property
    def n(self) -> int:
        return self.n_c + self.n_s


@dataclass(frozen=True)
class PairData:
    x: np.ndarray
    x_tilde: np.ndarray
    z: np.ndarray
    z_tilde: np.ndarray
    changed: np.ndarray   # boolean mask of redrawn style coordinates


def sample_pairs(proc: MultiViewProcess, count: int, seed: int) -> PairData:
    """Draw paired views; the content block is bitwise shared per pair."""
    rng = spawn(seed, "pairs")
    Lc = np.linalg.cholesky(proc.cov_c)
    Ls = np.linalg.cholesky(proc.cov_s)
    c = rng.standard_normal((count, proc.n_c)) @ Lc.T
    s = (proc.style_offset + c @ proc.style_coef.T
         + rng.standard_normal((count, proc.n_s)) @ Ls.T)
    changed = rng.uniform(size=(count, proc.n_s)) < proc.change_prob
    s_tilde = np.where(
        changed,
        s + rng.standard_normal((count, proc.n_s)) * np.sqrt(proc.change_var),
        s,
    )
    z = np.concatenate([c, s], axis=1)
    z_tilde = np.concatenate([c, s_tilde], axis=1)
    return PairData(proc.mixing.forward(z), proc.mixing.forward(z_tilde),
                    z, z_tilde, changed)


@dataclass(frozen=True)
class ContentExperimentConfig:
    n_pairs: int = 20_000
    n_eval: int = 5_000
    encoder_hidden: tuple = (128, 128)
    encoder_out: int | None = None     # defaults to n_c
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=1e-3, epochs=60, n_negatives=256, temperature=0.5, patience=15))
    krr: KrrConfig = field(default_factory=KrrConfig)
    seed: int = 0

    def to_dict(self):
        return {
            "n_pairs": self.n_pairs,
            "n_eval": self.n_eval,
            "encoder_hidden": list(self.encoder_hidden),
            "encoder_out": self.encoder_out,
            "train": self.train.to_dict(),
            "krr": {k: getattr(self.krr, k) for k in self.krr.__dataclass_fields__},
            "seed": self.seed,
        }


def content_experiment(proc: MultiViewProcess,
                       cfg: ContentExperimentConfig) -> MetricReport:
    """Train an InfoNCE encoder on pairs and report content/style R^2."""
    data_seed = child_seed(cfg.seed, "data")
    pairs = sample_pairs(proc, cfg.n_pairs, data_seed)
    eval_pairs = sample_pairs(proc, cfg.n_eval, child_seed(cfg.seed, "eval"))

    d = pairs.x.shape[1]
    out_dim = cfg.encoder_out or proc.n_c
    encoder = EncoderMlp((d, *cfg.encoder_hidden, out_dim))
    encoder.init_params(child_seed(cfg.seed, "encoder"))
    train_cfg = cfg.train if cfg.train.seed == cfg.seed else \
        TrainConfig(**{**cfg.train.to_dict(), "seed": cfg.seed})
    result = train_align_maxent(encoder, (pairs.x, pairs.x_tilde), train_cfg)

    c_hat = result.model.forward(eval_pairs.x)
    targets = {"content": eval_pairs.z[:, :proc.n_c],
               "style": eval_pairs.z[:, proc.n_c:]}
    krr_cfg = KrrConfig(**{**{k: getattr(cfg.krr, k)
                              for k in cfg.krr.__dataclass_fields__},
                           "seed": cfg.seed})
    r2 = krr_r2(c_hat, targets, krr_cfg)
    resolved = cfg.to_dict()
    return MetricReport(seed=cfg.seed, config_hash=config_hash(resolved),
                        r2_per_block=r2, config=resolved)


def default_process(n_c=3, n_s=3, statistical=False, causal=False,
                    change_prob=1.0, seed=0, mixing=None) -> MultiViewProcess:
    """The numerical-experiment family: optional within-block correlation
    and optional causal dependence of style on content."""
    from .mixing import random_invertible_mlp

    rng = spawn(seed, "process")
    n = n_c + n_s

    def corr_cov(k):
        A = rng.uniform(-1.0, 1.0, size=(k, k))
        C = A @ A.T + k * np.eye(k)
        d = np.sqrt(np.diag(C))
        return C / np.outer(d, d)

    cov_c = corr_cov(n_c) if statistical else np.eye(n_c)
    cov_s = corr_cov(n_s) if statistical else np.eye(n_s)
    B = (rng.uniform(0.8, 1.6, size=(n_s, n_c)) * rng.choice((-1.0, 1.0),
         size=(n_s, n_c))) if causal else np.zeros((n_s, n_c))
    a = rng.uniform(-0.3, 0.3, size=n_s) if causal else np.zeros(n_s)
    mixing = mixing or random_invertible_mlp(n, 3, child_seed(seed, "mixing"))
    return MultiViewProcess(n_c=n_c, n_s=n_s, cov_c=cov_c, style_offset=a,
                            style_coef=B, cov_s=cov_s, change_prob=change_prob,
                            change_var=np.ones(n_s), mixing=mixing)
