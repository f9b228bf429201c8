r"""The saved model: one `<prefix>.pipeline` file that scores as it did when fit.

The file holds the preprocessing switches, the TF-IDF vocabulary and idf,
and the ridge weights:

    sevrank-pipeline-v1\n
    JSON manifest: preprocess, tfidf, alpha, intercept, dim, grams_bytes\n
    the grams in column order, joined by \n, UTF-8   (grams_bytes bytes)
    idf, then the weights, little-endian float64      (8 * dim bytes each)

JSON writes floats with repr, so every number round-trips bit for bit.  A
char-wb gram comes from one whitespace-split word, so it holds no \n.
`load_pipeline` checks every part; a defect raises ValueError naming the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .features import TfidfConfig, TfidfModel
from .regress import RidgeModel
from .textproc import PreprocessConfig

__all__ = ["Pipeline", "save_pipeline", "load_pipeline"]

_MAGIC = b"sevrank-pipeline-v1\n"
_KEYS = ("preprocess", "tfidf", "alpha", "intercept", "dim", "grams_bytes")


@dataclass(frozen=True, eq=False)
class Pipeline:
    preprocess: PreprocessConfig
    tfidf: TfidfModel
    ridge: RidgeModel


def save_pipeline(model: Pipeline, path: str | Path) -> None:
    vocabulary = model.tfidf.vocabulary
    blob = "\n".join(sorted(vocabulary, key=vocabulary.__getitem__)).encode("utf-8")
    manifest = {"preprocess": asdict(model.preprocess), "tfidf": asdict(model.tfidf.config),
                "alpha": float(model.ridge.alpha), "intercept": float(model.ridge.intercept),
                "dim": len(vocabulary), "grams_bytes": len(blob)}
    Path(path).write_bytes(b"".join((_MAGIC, json.dumps(manifest).encode("ascii"), b"\n",
                                     blob, model.tfidf.idf.astype("<f8").tobytes(),
                                     model.ridge.weights.astype("<f8").tobytes())))


def load_pipeline(path: str | Path) -> Pipeline:
    raw = Path(path).read_bytes()

    def fail(message: str) -> ValueError:
        return ValueError(f"{path}: {message}")

    if not raw.startswith(_MAGIC):
        raise fail("not a sevrank-pipeline-v1 file")
    end = raw.find(b"\n", len(_MAGIC))
    if end < 0:
        raise fail("missing manifest line")
    try:
        manifest = json.loads(raw[len(_MAGIC) : end])
    except (ValueError, RecursionError):
        raise fail("manifest line is not JSON") from None
    if not isinstance(manifest, dict) or sorted(manifest) != sorted(_KEYS):
        raise fail(f"manifest must hold exactly {', '.join(_KEYS)}")
    for key, cls, kind in (("preprocess", PreprocessConfig, bool),
                           ("tfidf", TfidfConfig, int)):
        names, values = [f.name for f in fields(cls)], manifest[key]
        if (not isinstance(values, dict) or sorted(values) != sorted(names)
                or any(type(v) is not kind for v in values.values())):
            raise fail(f"manifest {key!r} must set exactly {', '.join(names)} "
                       f"to {kind.__name__} values")
    pp = PreprocessConfig(**manifest["preprocess"])
    config = TfidfConfig(**manifest["tfidf"])
    if not 1 <= config.n_min <= config.n_max:
        raise fail(f"invalid n-gram range ({config.n_min}, {config.n_max})")
    alpha, intercept, dim, grams_bytes = (manifest[key] for key in _KEYS[2:])
    if not all(type(n) is int and n >= 0 for n in (dim, grams_bytes)):
        raise fail("dim and grams_bytes must be integers >= 0")
    payload = raw[end + 1 :]
    if len(payload) != grams_bytes + 16 * dim:
        raise fail(f"payload is {len(payload)} bytes, not {grams_bytes + 16 * dim}")
    try:
        text = payload[:grams_bytes].decode("utf-8")
    except UnicodeDecodeError:
        raise fail("grams are not UTF-8") from None
    grams = text.split("\n") if text else []
    vocabulary = dict(zip(grams, range(dim)))
    if len(grams) != dim or len(vocabulary) != dim or "" in vocabulary:
        raise fail(f"grams must be {dim} distinct non-empty strings")
    if not (type(alpha) is float and math.isfinite(alpha) and alpha > 0):
        raise fail(f"alpha must be a finite number > 0, got {alpha!r}")
    numbers = np.frombuffer(payload, dtype="<f8", offset=grams_bytes).astype(np.float64)
    if not (type(intercept) is float and math.isfinite(intercept)
            and np.isfinite(numbers).all()):
        raise fail("intercept, idf and weights must be finite numbers")
    return Pipeline(pp, TfidfModel(vocabulary, numbers[:dim], config),
                    RidgeModel(numbers[dim:], intercept, alpha))

