"""Run configuration: dataclasses plus strict JSON (de)serialization.

Unknown keys anywhere in the document are rejected so persisted configs
reproduce runs exactly.
"""

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError

VARIANTS = ("model1", "model2", "model3")


@dataclass
class SpectralConfig:
    conv1_filters: int = 8
    conv1_width: int = 5
    conv2_filters: int = 16
    conv2_width: int = 3
    stride: int = 1
    fc1_width: int = 32
    small_slice_width: int = 16
    epsilon: float = 1e-8
    triangular_cap: object = "auto"  # "auto", null, or an int

    def resolve_cap(self, n_class: int):
        if self.triangular_cap == "auto":
            return None if n_class <= 5 else 2000
        return self.triangular_cap

    def validate(self):
        for name in ("conv1_filters", "conv1_width", "conv2_filters",
                     "conv2_width", "stride", "fc1_width", "small_slice_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"stage1.{name} must be >= 1")
        if self.epsilon <= 0:
            raise ConfigError("stage1.epsilon must be positive")
        cap = self.triangular_cap
        if cap != "auto" and cap is not None and (
                not isinstance(cap, int) or isinstance(cap, bool) or cap < 1):
            raise ConfigError("stage1.triangular_cap must be 'auto', null or a positive int")


@dataclass
class CapsuleConfig:
    conv_filters: int = 32
    conv_kernel: int = 3
    conv_stride: int = 1
    capsules: int = 8
    capsule_dim: int = 8
    capsule_kernel: int = 3
    capsule_stride: int = 1
    class_capsule_dim: int = None  # defaults to `capsules`
    routing_iterations: int = 3

    def validate(self):
        for name in ("conv_filters", "conv_kernel", "conv_stride", "capsule_kernel",
                     "capsule_stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"stage2.{name} must be >= 1")
        if self.conv_kernel % 2 == 0 or self.capsule_kernel % 2 == 0:
            raise ConfigError("stage2 kernels must be odd")
        if self.capsules < 2 or self.capsule_dim < 2:
            raise ConfigError("stage2 needs >= 2 capsules of dimension >= 2")
        if self.routing_iterations < 1:
            raise ConfigError("stage2.routing_iterations must be >= 1")
        if self.class_capsule_dim is not None and self.class_capsule_dim < 2:
            raise ConfigError("stage2.class_capsule_dim must be >= 2")


@dataclass
class MarginLossConfig:
    edge_plus: float = 0.9
    edge_minus: float = 0.1
    mu: float = 0.5
    variant: str = "canonical"  # or "as-printed"

    def validate(self):
        if not 0 < self.edge_minus < self.edge_plus < 1:
            raise ConfigError("margin edges must satisfy 0 < edge_minus < edge_plus < 1")
        if self.mu <= 0:
            raise ConfigError("margin.mu must be positive")
        if self.variant not in ("canonical", "as-printed"):
            raise ConfigError(f"unknown margin variant {self.variant!r}")


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.0005
    reconstruction_weight: float = 0.0005  # theta in the total loss
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0
    patch_size: int = 7
    decoder_hidden: int = 64
    segmentation_on: bool = True
    enhancement_on: bool = True
    margin: MarginLossConfig = field(default_factory=MarginLossConfig)

    def validate(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("training.epochs and training.batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("training.learning_rate must be positive")
        if self.reconstruction_weight < 0:
            raise ConfigError("training.reconstruction_weight must be >= 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ConfigError("adam betas must be in (0, 1)")
        if self.adam_epsilon <= 0:
            raise ConfigError("training.adam_epsilon must be positive")
        if self.seed < 0:
            raise ConfigError("training.seed must be >= 0")
        if self.patch_size % 2 == 0 or self.patch_size < 1:
            raise ConfigError("training.patch_size must be a positive odd integer")
        if self.decoder_hidden < 1:
            raise ConfigError("training.decoder_hidden must be >= 1")
        self.margin.validate()


@dataclass
class RunConfig:
    cube: str = None
    labels: str = None
    output_dir: str = None
    train_fraction: float = 2.0 / 3.0
    stage1: SpectralConfig = field(default_factory=SpectralConfig)
    stage2: CapsuleConfig = field(default_factory=CapsuleConfig)
    training: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must be in (0, 1)")
        self.stage1.validate()
        self.stage2.validate()
        self.training.validate()

    def apply_variant(self, variant: str):
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        self.training.segmentation_on = variant != "model1"
        self.training.enhancement_on = variant == "model3"


# JSON types each scalar field takes. A bool is an int in Python, so it is
# refused apart; null is allowed only where the default is None.
_SCALAR_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _check_scalar(f, val, key):
    allowed = _SCALAR_TYPES.get(f.type)
    if allowed is None or (val is None and f.default is None):
        return
    if not isinstance(val, allowed) or (isinstance(val, bool) and f.type is not bool):
        raise ConfigError(f"{key} must be {f.type.__name__}, got {json.dumps(val)}")


def _build(cls, doc, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object at {path or 'top level'}")
    names = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(doc) - set(names)
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"unknown config key {where}{sorted(unknown)[0]!r}")
    kwargs = {}
    for key, val in doc.items():
        f = names[key]
        sub = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(f.type):
            kwargs[key] = _build(f.type, val, sub)
        else:
            _check_scalar(f, val, sub)
            kwargs[key] = val
    return cls(**kwargs)


def config_from_dict(doc: dict) -> RunConfig:
    cfg = _build(RunConfig, doc, "")
    cfg.validate()
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, sort_keys=True, indent=2)
        fh.write("\n")
