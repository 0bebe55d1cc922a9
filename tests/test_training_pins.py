"""Pins: the trainer model's outputs, recorded from the scalar per-sample model.

The values below were recorded from the model that walked each sample in
Python floats, before it read plan columns as arrays.  The array model must
reproduce every one with ``==``: every scalar :class:`IterationResult` field,
``per_dp_time_s``, the dp0 timeline events, and the per-sample cost-model
values the Planner's balancing reads.  The cases cover a hybrid VLM plan with
explicit encoder assignments, the default per-DP-group encoder spread, a
text-only plan, a PP=2 mesh (bubble term), a CP=2 x TP=2 mesh (shard
divisor), an MoE backbone, a wide bin, more microbatches than ``np.sum``
adds sequentially, empty bins, zero-token samples and uneven widths, and
modules without rows: a VLM step with no image (default spread and an empty
encoder plan) and an empty backbone.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np
import pytest

from repro.core.columns import SampleColumns
from repro.core.cost_model import BackboneCostModel, EncoderCostModel
from repro.parallelism.mesh import DeviceMesh
from repro.training.flops import TokenBins
from repro.training.models import VLMConfig, llama_12b, mixtral_8x7b, vit_1b
from repro.training.simulator import TrainingSimulator
from conftest import make_sample

# The backbone and encoder bins of a hybrid strategy plan (2 DP groups x 2 TP,
# 3 microbatches) as ``[bucket][microbatch]`` lists of (total, image) tokens.
HYBRID_BACKBONE = [
    [
        [(1216, 1024), (544, 512), (352, 256), (160, 0)],
        [(1056, 1024), (704, 512), (544, 0)],
        [(992, 768), (832, 768), (416, 256), (320, 256)],
    ],
    [
        [(1184, 1024), (608, 512), (352, 0), (128, 0), (64, 0), (64, 0), (32, 0)],
        [(1120, 1024), (640, 512), (480, 256), (192, 0)],
        [(928, 768), (896, 768), (448, 0), (256, 0)],
    ],
]

HYBRID_ENCODER = [
    [
        [(1184, 1024)],
        [(896, 768)],
        [(608, 512), (320, 256)],
    ],
    [
        [(1120, 1024)],
        [(832, 768)],
        [(544, 512), (480, 256)],
    ],
    [
        [(1056, 1024)],
        [(992, 768)],
        [(704, 512), (416, 256)],
    ],
    [
        [(1216, 1024)],
        [(928, 768)],
        [(640, 512), (352, 256)],
    ],
]

RAGGED = [
    [[], [(0, 0), (700, 512), (5, 0)], [(4096, 2048)]],
    [[(33, 0)], [], []],
    [[(1, 1), (2, 0), (3, 3), (4, 0), (90000, 65536)], [(0, 0)], [(17, 16), (300, 256)]],
]


def _wide_row(k):
    image = (53 * k) % 700 if k % 3 else 0
    return ((37 * k) % 1009 + 1 + image, image)


WIDE = [
    [[_wide_row(k) for k in range(60)], [(5, 0)]],
    [[(9, 0)] * 9, [(2**20, 2**19)]],
]

# Text-only bins for a VLM: the default encoder spread has no image to place.
NO_IMAGES = [[[(640, 0), (96, 0)], [(1500, 0)], []], [[(33, 0)], [(700, 0), (5, 0)], [(4096, 0)]]]

MODELS = {
    "vlm": lambda: VLMConfig(encoder=vit_1b(), backbone=llama_12b()),
    "llama": llama_12b,
    "moe": mixtral_8x7b,
}

# name -> (model, (pp, dp, cp, tp), backbone bins, encoder bins, (latency, hidden fetch))
CASES = {
    "hybrid_vlm_explicit_encoder": ("vlm", (1, 2, 1, 2), HYBRID_BACKBONE, HYBRID_ENCODER, (0.02, 0.01)),
    "vlm_default_spread": ("vlm", (1, 2, 1, 2), HYBRID_BACKBONE, None, (0.05, None)),
    "text_only": (
        "llama", (1, 2, 1, 1),
        [[[(512, 0), (1024, 0), (77, 0)], [(2048, 0)]], [[(4000, 0)], [(128, 0), (128, 0), (9, 0)]]],
        None, (0.0, None),
    ),
    "pp2_bubble": (
        "llama", (2, 2, 1, 1),
        [[[(3000, 0)], [(100, 0), (250, 0)], [(1200, 0)]],
         [[(64, 0)], [(8192, 0)], [(512, 0), (512, 0)]]],
        None, (1e4, None),
    ),
    "cp2_tp2_shard": ("vlm", (1, 2, 2, 2), HYBRID_BACKBONE, None, (0.003, 0.0)),
    "moe_backbone": (
        "moe", (1, 2, 1, 1),
        [[[(4096, 0), (100, 0)], [(31, 0)]], [[(2000, 0)], [(1500, 0), (1500, 0), (1, 0)]]],
        None, (0.1, 0.2),
    ),
    "wide_bin": ("vlm", (1, 2, 1, 2), WIDE, None, (0.0, None)),
    "many_microbatches": (
        "llama", (1, 2, 1, 1),
        [[[((97 * (k + b)) % 3001 + 1, 0)] for k in range(10)] for b in range(2)],
        None, (0.0, None),
    ),
    "ragged_bins": ("vlm", (2, 3, 1, 2), RAGGED, None, (0.0, 0.0)),
    "vlm_no_images_default_spread": ("vlm", (1, 2, 1, 2), NO_IMAGES, None, (0.0, None)),
    "vlm_empty_encoder_plan": (
        "vlm", (1, 2, 1, 2), HYBRID_BACKBONE, [[[], [], []]] * 4, (0.01, 0.0),
    ),
    "empty_backbone_module": ("vlm", (2, 2, 1, 2), [[[], [], []]] * 2, None, (0.04, None)),
}

EXPECTED = {
    'hybrid_vlm_explicit_encoder': {
        'iteration_time_s': 5.572089826389435,
        'encoder_time_s': 0.3110532099687875,
        'backbone_time_s': 5.231459899620648,
        'alltoall_time_s': 0.0095767168,
        'bubble_time_s': 0.17619097907322878,
        'data_fetch_latency_s': 0.02,
        'exposed_fetch_time_s': 0.01,
        'total_tokens': 14528,
        'peak_activation_tokens': 2560,
        'hidden_fetch_time_s': 0.01,
        'throughput_tokens_per_s': 2607.280293866647,
        'per_dp_time_s': [5.375898847316207, 5.552089826389436],
        'dp0_timeline': [
            ('mb0', 0.0, 1.7426566273167827, 0.12787743076494598, 0.00318743296, 1.6115917635918366),
            ('mb1', 1.7426566273167827, 1.729685691844994, 0.09331596299063626, 0.00318743296, 1.6331822958943578),
            ('mb2', 3.472342319161777, 1.9035565281544298, 0.08985981621320528, 0.00320185088, 1.8104948610612246),
        ],
    },
    'vlm_default_spread': {
        'iteration_time_s': 5.688239183765666,
        'encoder_time_s': 0.437202567345018,
        'backbone_time_s': 5.231459899620648,
        'alltoall_time_s': 0.0095767168,
        'bubble_time_s': 0.17619097907322878,
        'data_fetch_latency_s': 0.05,
        'exposed_fetch_time_s': 0.0,
        'total_tokens': 14528,
        'peak_activation_tokens': 2560,
        'hidden_fetch_time_s': 0.05,
        'throughput_tokens_per_s': 2554.0416868304633,
        'per_dp_time_s': [5.5020482046924375, 5.678239183765666],
        'dp0_timeline': [
            ('mb0', 0.0, 1.7720338749249458, 0.15725467837310925, 0.00318743296, 1.6115917635918366),
            ('mb1', 1.7720338749249458, 1.7936244072274672, 0.15725467837310925, 0.00318743296, 1.6331822958943578),
            ('mb2', 3.565658282152413, 1.936389922540024, 0.12269321059879952, 0.00320185088, 1.8104948610612246),
        ],
    },
    'text_only': {
        'iteration_time_s': 6.678954945459783,
        'encoder_time_s': 0.0,
        'backbone_time_s': 6.668954945459784,
        'alltoall_time_s': 0.0,
        'bubble_time_s': 1.3552476061656664,
        'data_fetch_latency_s': 0.0,
        'exposed_fetch_time_s': 0.0,
        'total_tokens': 7926,
        'peak_activation_tokens': 4000,
        'hidden_fetch_time_s': 0.0,
        'throughput_tokens_per_s': 1186.7126017054409,
        'per_dp_time_s': [5.313707339294117, 6.668954945459784],
        'dp0_timeline': [
            ('mb0', 0.0, 2.2858327359615846, 0.0, 0.0, 2.2858327359615846),
            ('mb1', 2.2858327359615846, 3.027874603332533, 0.0, 0.0, 3.027874603332533),
        ],
    },
    'pp2_bubble': {
        'iteration_time_s': 10000.01,
        'encoder_time_s': 0.0,
        'backbone_time_s': 8.07062764269868,
        'alltoall_time_s': 0.0,
        'bubble_time_s': 6.350714433767106,
        'data_fetch_latency_s': 10000.0,
        'exposed_fetch_time_s': 9989.49315141209,
        'total_tokens': 13830,
        'peak_activation_tokens': 8192,
        'hidden_fetch_time_s': 10.506848587908763,
        'throughput_tokens_per_s': 1.382998617001383,
        'per_dp_time_s': [4.156134154141657, 10.506848587908763],
        'dp0_timeline': [
            ('mb0', 0.0, 2.2887764513805524, 0.0, 0.0, 2.2887764513805524),
            ('mb1', 2.2887764513805524, 0.24269085810324129, 0.0, 0.0, 0.24269085810324129),
            ('mb2', 2.531467309483794, 0.8617413608643457, 0.0, 0.0, 0.8617413608643457),
        ],
    },
    'cp2_tp2_shard': {
        'iteration_time_s': 2.9873774911308524,
        'encoder_time_s': 0.34907082452052823,
        'backbone_time_s': 2.615729949810324,
        'alltoall_time_s': 0.0095767168,
        'bubble_time_s': 0.08809548953661439,
        'data_fetch_latency_s': 0.003,
        'exposed_fetch_time_s': 0.003,
        'total_tokens': 14528,
        'peak_activation_tokens': 2560,
        'hidden_fetch_time_s': 0.0,
        'throughput_tokens_per_s': 4863.128293338154,
        'per_dp_time_s': [2.886282001594238, 2.9743774911308525],
        'dp0_timeline': [
            ('mb0', 0.0, 0.9368607455208643, 0.12787743076494598, 0.00318743296, 0.8057958817959183),
            ('mb1', 0.9368607455208643, 0.9476560116721249, 0.12787743076494598, 0.00318743296, 0.8165911479471789),
            ('mb2', 1.8845167571929893, 1.0017652444012486, 0.09331596299063626, 0.00320185088, 0.9052474305306123),
        ],
    },
    'moe_backbone': {
        'iteration_time_s': 6.079180074256902,
        'encoder_time_s': 0.0,
        'backbone_time_s': 6.069180074256902,
        'alltoall_time_s': 0.0,
        'bubble_time_s': 0.6370936298487395,
        'data_fetch_latency_s': 0.1,
        'exposed_fetch_time_s': 0.0,
        'total_tokens': 9228,
        'peak_activation_tokens': 4196,
        'hidden_fetch_time_s': 0.1,
        'throughput_tokens_per_s': 1517.96786528453,
        'per_dp_time_s': [5.432086444408163, 6.069180074256902],
        'dp0_timeline': [
            ('mb0', 0.0, 5.396092940292917, 0.0, 0.0, 5.396092940292917),
            ('mb1', 5.396092940292917, 0.0359935041152461, 0.0, 0.0, 0.0359935041152461),
        ],
    },
    'wide_bin': {
        'iteration_time_s': 31775.31894105495,
        'encoder_time_s': 3683.222790751946,
        'backbone_time_s': 28092.049878978843,
        'alltoall_time_s': 0.03627132416,
        'bubble_time_s': 28062.575410942158,
        'data_fetch_latency_s': 0.0,
        'exposed_fetch_time_s': 0.0,
        'total_tokens': 1090079,
        'peak_activation_tokens': 1048576,
        'hidden_fetch_time_s': 0.0,
        'throughput_tokens_per_s': 34.30583976268372,
        'per_dp_time_s': [3712.7335301127923, 31775.30894105495],
        'dp0_timeline': [
            ('mb0', 0.0, 30.269941117310925, 0.7951715090132053, 0.003743424, 29.47102618429772),
            ('mb1', 30.269941117310925, 3682.4635889954816, 3682.427619242933, 0.03252790016, 0.003441852388955582),
        ],
    },
    'many_microbatches': {
        'iteration_time_s': 7.548230768019208,
        'encoder_time_s': 0.0,
        'backbone_time_s': 7.538230768019208,
        'alltoall_time_s': 0.0,
        'bubble_time_s': 1.38213779207683,
        'data_fetch_latency_s': 0.0,
        'exposed_fetch_time_s': 0.0,
        'total_tokens': 9720,
        'peak_activation_tokens': 971,
        'hidden_fetch_time_s': 0.0,
        'throughput_tokens_per_s': 1287.718976635197,
        'per_dp_time_s': [6.156092975942378, 7.538230768019208],
        'dp0_timeline': [
            ('mb0', 0.0, 0.0013765418103241296, 0.0, 0.0, 0.0013765418103241296),
            ('mb1', 0.0013765418103241296, 0.13537436611764705, 0.0, 0.0, 0.13537436611764705),
            ('mb2', 0.13675090792797118, 0.27030906929171666, 0.0, 0.0, 0.27030906929171666),
            ('mb3', 0.40705997721968784, 0.406180651332533, 0.0, 0.0, 0.406180651332533),
            ('mb4', 0.8132406285522209, 0.542989112240096, 0.0, 0.0, 0.542989112240096),
            ('mb5', 1.356229740792317, 0.6807344520144057, 0.0, 0.0, 0.6807344520144057),
            ('mb6', 2.036964192806723, 0.8194166706554622, 0.0, 0.0, 0.8194166706554622),
            ('mb7', 2.856380863462185, 0.9590357681632653, 0.0, 0.0, 0.9590357681632653),
            ('mb8', 3.8154166316254505, 1.0995917445378152, 0.0, 0.0, 1.0995917445378152),
            ('mb9', 4.915008376163266, 1.2410845997791116, 0.0, 0.0, 1.2410845997791116),
        ],
    },
    'ragged_bins': {
        'iteration_time_s': 261.43476497343875,
        'encoder_time_s': 64.26877739971765,
        'backbone_time_s': 131.9020098404802,
        'alltoall_time_s': 0.01285071104,
        'bubble_time_s': 175.8174500419304,
        'data_fetch_latency_s': 0.0,
        'exposed_fetch_time_s': 0.0,
        'total_tokens': 95161,
        'peak_activation_tokens': 90010,
        'hidden_fetch_time_s': 0.0,
        'throughput_tokens_per_s': 363.99520166978624,
        'per_dp_time_s': [87.45920807148434, 85.60731493150834, 261.42476497343876],
        'dp0_timeline': [
            ('mb0', 0.0, 63.93158200816327, 63.92489079536327, 0.0066912128000000005, 0.0),
            ('mb1', 63.93158200816327, 0.31221725837061226, 0.06048256860504202, 0.0030288358400000002, 0.24870585392557024),
            ('mb2', 64.24379926653388, 1.9048814688960385, 0.28340403574933976, 0.0031306624, 1.6183467707466987),
        ],
    },
    'vlm_no_images_default_spread': {
        'iteration_time_s': 3.7758444763889556,
        'encoder_time_s': 0.0,
        'backbone_time_s': 3.756844476388956,
        'alltoall_time_s': 0.009000000000000001,
        'bubble_time_s': 2.1514911371524614,
        'data_fetch_latency_s': 0.0,
        'exposed_fetch_time_s': 0.0,
        'total_tokens': 7070,
        'peak_activation_tokens': 4096,
        'hidden_fetch_time_s': 0.0,
        'throughput_tokens_per_s': 1872.428815384214,
        'per_dp_time_s': [1.6143533392364944, 3.765844476388956],
        'dp0_timeline': [
            ('mb0', 0.0, 0.5199747173877551, 0.0, 0.003, 0.5169747173877551),
            ('mb1', 0.5199747173877551, 1.0913786218487393, 0.0, 0.003, 1.0883786218487395),
            ('mb2', 1.6113533392364945, 0.003, 0.0, 0.003, 0.0),
        ],
    },
    'vlm_empty_encoder_plan': {
        'iteration_time_s': 5.261036616420648,
        'encoder_time_s': 0.0,
        'backbone_time_s': 5.231459899620648,
        'alltoall_time_s': 0.0095767168,
        'bubble_time_s': 0.17619097907322967,
        'data_fetch_latency_s': 0.01,
        'exposed_fetch_time_s': 0.01,
        'total_tokens': 14528,
        'peak_activation_tokens': 2560,
        'hidden_fetch_time_s': 0.0,
        'throughput_tokens_per_s': 2761.432975899746,
        'per_dp_time_s': [5.064845637347418, 5.241036616420648],
        'dp0_timeline': [
            ('mb0', 0.0, 1.6147791965518365, 0.0, 0.00318743296, 1.6115917635918366),
            ('mb1', 1.6147791965518365, 1.6363697288543577, 0.0, 0.00318743296, 1.6331822958943578),
            ('mb2', 3.251148925406194, 1.8136967119412246, 0.0, 0.00320185088, 1.8104948610612246),
        ],
    },
    'empty_backbone_module': {
        'iteration_time_s': 0.05,
        'encoder_time_s': 0.0,
        'backbone_time_s': 0.0,
        'alltoall_time_s': 0.009000000000000001,
        'bubble_time_s': 0.0,
        'data_fetch_latency_s': 0.04,
        'exposed_fetch_time_s': 0.03,
        'total_tokens': 0,
        'peak_activation_tokens': 0,
        'hidden_fetch_time_s': 0.010000000000000002,
        'throughput_tokens_per_s': 0.0,
        'per_dp_time_s': [0.010000000000000002, 0.010000000000000002],
        'dp0_timeline': [
            ('mb0', 0.0, 0.003, 0.0, 0.003, 0.0),
            ('mb1', 0.003, 0.003, 0.0, 0.003, 0.0),
            ('mb2', 0.006, 0.003, 0.0, 0.003, 0.0),
        ],
    },
}

COST_SAMPLES = [(0, 0), (1, 0), (17, 1), (64, 256), (100, 1024), (3, 4097), (5000, 0), (123, 65536)]

EXPECTED_COSTS = {
    'vit_1b': [
        (0.0, 0.0),
        (0.0, 0.0),
        (0.00011139291428571428, 2816.0),
        (0.029377247608163265, 720896.0),
        (0.12787743076494598, 2883584.0),
        (0.677624165877551, 11537152.0),
        (0.0, 0.0),
        (63.92489079536327, 184549376.0),
    ],
    'llama_12b': [
        (0.0, 0.0),
        (0.001447349013205282, 9216.0),
        (0.026067516849939975, 165888.0),
        (0.468233871212485, 2949120.0),
        (1.6896631659255703, 10358784.0),
        (6.770834777430973, 37785600.0),
        (8.481153997599039, 46080000.0),
        (309.66221362585355, 605113344.0),
    ],
    'mixtral_8x7b': [
        (0.0, 0.0),
        (0.0012230764177671067, 8192.0),
        (0.02202500529939976, 147456.0),
        (0.3945968978055222, 2621440.0),
        (1.4144607973262906, 9207808.0),
        (5.543492766578631, 33587200.0),
        (6.90197143817527, 40960000.0),
        (215.97379066369845, 537878528.0),
    ],
}


def token_bins(nested) -> TokenBins:
    """``[bucket][microbatch]`` lists of (total, image) pairs as plan columns."""
    bins = list(chain.from_iterable(nested))
    total, image = np.array(list(chain.from_iterable(bins)), dtype=np.int64).reshape(-1, 2).T
    offsets = list(accumulate(map(len, bins), initial=0))
    return TokenBins(total, image, offsets, len(nested), len(nested[0]))


SCALAR_FIELDS = (
    "iteration_time_s", "encoder_time_s", "backbone_time_s", "alltoall_time_s",
    "bubble_time_s", "data_fetch_latency_s", "exposed_fetch_time_s", "total_tokens",
    "peak_activation_tokens", "hidden_fetch_time_s", "throughput_tokens_per_s",
)


@pytest.mark.parametrize("name", sorted(CASES))
def test_iteration_matches_the_recorded_scalar_model(name):
    model, (pp, dp, cp, tp), backbone, encoder, (latency, hidden) = CASES[name]
    simulator = TrainingSimulator(MODELS[model](), DeviceMesh(pp=pp, dp=dp, cp=cp, tp=tp))
    result = simulator.simulate_iteration(
        token_bins(backbone),
        None if encoder is None else token_bins(encoder),
        data_fetch_latency_s=latency,
        hidden_fetch_s=hidden,
    )
    expected = EXPECTED[name]
    assert {field: getattr(result, field) for field in SCALAR_FIELDS} == {
        field: expected[field] for field in SCALAR_FIELDS
    }
    assert result.per_dp_time_s == expected["per_dp_time_s"]
    assert all(type(value) is float for value in result.per_dp_time_s)
    assert [
        (e.name, e.start, e.duration, e.metadata["encoder"], e.metadata["alltoall"],
         e.metadata["backbone"])
        for e in result.timeline.events(component="dp0")
    ] == expected["dp0_timeline"]
    assert len(result.timeline) == dp * len(expected["dp0_timeline"])


def test_per_sample_cost_models_match_the_recorded_values():
    rows = SampleColumns.from_samples(
        [make_sample(k, text, image) for k, (text, image) in enumerate(COST_SAMPLES)]
    )

    def recorded_loads(label):
        # The recorded pairs are (load, memory); a cost model gives loads only.
        return [load for load, _ in EXPECTED_COSTS[label]]

    assert EncoderCostModel(vit_1b())(rows).tolist() == recorded_loads("vit_1b")
    for label, backbone in (("llama_12b", llama_12b()), ("mixtral_8x7b", mixtral_8x7b())):
        assert BackboneCostModel(backbone)(rows).tolist() == recorded_loads(label)
