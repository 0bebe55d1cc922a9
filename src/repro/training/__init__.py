"""Training-side substrate: model configs, FLOPs models, iteration simulator."""

from repro.training.models import (
    ModelConfig,
    EncoderConfig,
    BackboneConfig,
    VLMConfig,
    MODEL_ZOO,
    vit_1b,
    vit_2b,
    llama_12b,
    tmoe_25b,
    mixtral_8x7b,
)
from repro.training.flops import (
    attention_flops,
    mlp_flops,
    transformer_layer_flops,
    encoder_sample_flops,
    microbatch_flops,
)
from repro.training.simulator import (
    GpuSpec,
    IterationResult,
    TrainingSimulator,
)
from repro.training.convergence import ConvergenceSimulator

__all__ = [
    "ModelConfig",
    "EncoderConfig",
    "BackboneConfig",
    "VLMConfig",
    "MODEL_ZOO",
    "vit_1b",
    "vit_2b",
    "llama_12b",
    "tmoe_25b",
    "mixtral_8x7b",
    "attention_flops",
    "mlp_flops",
    "transformer_layer_flops",
    "encoder_sample_flops",
    "microbatch_flops",
    "GpuSpec",
    "IterationResult",
    "TrainingSimulator",
    "ConvergenceSimulator",
]
