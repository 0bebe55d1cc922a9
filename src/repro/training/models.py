"""Model configurations from Table 1 of the paper.

Table 1 lists the encoder and backbone models used in the evaluation:

=============  =======  ======  ===========  ======
Model          #Layers  #Heads  Hidden Size  Notes
=============  =======  ======  ===========  ======
ViT - 1B       39       16      1408         encoder
ViT - 2B       48       16      1664         encoder
Llama - 12B    45       36      4608         dense LLM
tMoE - 25B     42       16      2048         MoE, top-k = 2
Mixtral - 8x7B 32       32      4096         MoE, top-k = 2
=============  =======  ======  ===========  ======
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ModelConfig:
    """Common transformer hyper-parameters."""

    name: str
    num_layers: int
    num_heads: int
    hidden_size: int
    vocab_size: ClassVar[int] = 128_000
    mlp_ratio: ClassVar[float] = 4.0

    def __post_init__(self) -> None:
        if self.num_layers <= 0 or self.num_heads <= 0 or self.hidden_size <= 0:
            raise ConfigurationError(f"invalid model config {self.name!r}")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigurationError(
                f"{self.name!r}: hidden size {self.hidden_size} not divisible by {self.num_heads} heads"
            )

    def approx_params(self) -> int:
        """Approximate dense parameter count (attention + MLP + embeddings)."""
        per_layer = 4 * self.hidden_size**2 + 2 * int(self.mlp_ratio * self.hidden_size**2)
        embeddings = self.vocab_size * self.hidden_size
        return self.num_layers * per_layer + embeddings


@dataclass(frozen=True)
class EncoderConfig(ModelConfig):
    """Vision Transformer encoder configuration."""

    vocab_size: ClassVar[int] = 0


@dataclass(frozen=True)
class BackboneConfig(ModelConfig):
    """LLM backbone configuration (dense or MoE)."""

    num_experts: int = 0
    experts_per_token: int = 0
    expert_hidden_size: int = 0

    @property
    def is_moe(self) -> bool:
        return self.num_experts > 0

    def active_mlp_ratio(self) -> float:
        """Effective MLP expansion per token (top-k experts for MoE)."""
        if not self.is_moe:
            return self.mlp_ratio
        expert_hidden = self.expert_hidden_size or int(self.mlp_ratio * self.hidden_size)
        return self.experts_per_token * expert_hidden / self.hidden_size


@dataclass(frozen=True)
class VLMConfig:
    """A vision-language model: encoder + backbone pair."""

    encoder: EncoderConfig
    backbone: BackboneConfig

    @property
    def name(self) -> str:
        return f"{self.backbone.name}+{self.encoder.name}"


def vit_1b() -> EncoderConfig:
    return EncoderConfig(name="ViT-1B", num_layers=39, num_heads=16, hidden_size=1408)


def vit_2b() -> EncoderConfig:
    return EncoderConfig(name="ViT-2B", num_layers=48, num_heads=16, hidden_size=1664)


def llama_12b() -> BackboneConfig:
    return BackboneConfig(name="Llama-12B", num_layers=45, num_heads=36, hidden_size=4608)


def tmoe_25b() -> BackboneConfig:
    return BackboneConfig(
        name="tMoE-25B",
        num_layers=42,
        num_heads=16,
        hidden_size=2048,
        num_experts=64,
        experts_per_token=2,
        expert_hidden_size=8192,
    )


def mixtral_8x7b() -> BackboneConfig:
    return BackboneConfig(
        name="Mixtral-8x7B",
        num_layers=32,
        num_heads=32,
        hidden_size=4096,
        num_experts=8,
        experts_per_token=2,
        expert_hidden_size=14336,
    )


#: Name -> constructor for every Table 1 model.
MODEL_ZOO = {
    "ViT-1B": vit_1b,
    "ViT-2B": vit_2b,
    "Llama-12B": llama_12b,
    "tMoE-25B": tmoe_25b,
    "Mixtral-8x7B": mixtral_8x7b,
}


def get_model(name: str) -> ModelConfig:
    """Look up a Table 1 model by name."""
    try:
        return MODEL_ZOO[name]()
    except KeyError:
        raise ConfigurationError(f"unknown model {name!r}; known: {sorted(MODEL_ZOO)}") from None
