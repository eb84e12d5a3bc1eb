"""Runtime defaults, optionally overridden by a JSON config file.

The file lives at ~/.config/povmix.json unless the POVMIX_CONFIG environment
variable points elsewhere. A missing file means defaults; unknown keys are
an error so typos do not silently vanish.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .decompose import DEFAULT_MAX_LEAVES
from .extremality import MARGIN_FACTOR
from .linalg import PSD_TOL, RANK_TOL
from .model import LABEL_TOL, PovmError

ENV_VAR = "POVMIX_CONFIG"

_DEFAULT_PATH = Path("~/.config/povmix.json")

# Seeds key numpy's Philox generator, whose key holds 128 bits.
SEED_LIMIT = 2**128


@dataclass(frozen=True)
class Config:
    rank_tol: float = RANK_TOL
    psd_tol: float = PSD_TOL
    label_tol: float = LABEL_TOL
    extremality_margin_factor: float = MARGIN_FACTOR
    max_leaves: int = DEFAULT_MAX_LEAVES
    seed: int = 0

    def __post_init__(self):
        for name in ("rank_tol", "psd_tol", "label_tol", "extremality_margin_factor"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise PovmError(f"config key {name!r} must be a number")
            if not value > 0:
                raise PovmError(f"config key {name!r} must be positive, got {value}")
            object.__setattr__(self, name, float(value))
        if isinstance(self.max_leaves, bool) or not isinstance(self.max_leaves, int):
            raise PovmError("config key 'max_leaves' must be an integer")
        if self.max_leaves < 1:
            raise PovmError(f"config key 'max_leaves' must be >= 1, got {self.max_leaves}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise PovmError("config key 'seed' must be an integer")
        if not 0 <= self.seed < SEED_LIMIT:
            raise PovmError(f"config key 'seed' must be in [0, 2**128), got {self.seed}")


def config_path() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return _DEFAULT_PATH.expanduser()


def load_config(path: Path | str | None = None) -> Config:
    """Read the config file, or return pure defaults if it does not exist."""
    target = Path(path) if path is not None else config_path()
    if not target.exists():
        return Config()
    try:
        data = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise PovmError(f"config file {target}: malformed JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise PovmError(f"config file {target}: expected a JSON object")
    known = {f.name for f in fields(Config)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise PovmError(f"config file {target}: unknown keys {unknown}")
    return replace(Config(), **data)
