"""Calibration anchors: paper-reported measurements the profiles are fit to.

These are *data*, consumed by the calibration tests in
``tests/test_profiles.py``, which assert that the fitted profiles land
within a stated tolerance of each anchor.  Exact equality is
not expected — the paper's numbers are wall-clock measurements on real
hardware over an uncontrolled home network — but the *shape* (orderings and
rough ratios) must hold, and these anchors pin it down.

Sources: Table VI (centralized cloud / local / S2M3 inference times),
Table VII (per-device latency and end-to-end with loading), Table IX
(device-availability ablation), Table X (multi-task sharing), footnotes 1,
2 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Anchor:
    """One paper-reported measurement with a matching tolerance.

    ``rel_tol`` is deliberately loose (default 0.45): the goal is shape
    preservation, not digit matching.
    """

    description: str
    kind: str  # "module_time" | "model_local" | "load_time"
    device: str
    seconds: float
    module: Optional[str] = None
    model: Optional[str] = None
    rel_tol: float = 0.45


#: Module-level compute-time anchors.
MODULE_TIME_ANCHORS: List[Anchor] = [
    Anchor(
        "footnote 2: CLIP ViT-B/16 text prompt-set encode on laptop ~3 s "
        "(Fig. 3 shows 2.06 s for the same step)",
        "module_time", "laptop", 2.06, module="clip-trf-38m", model="clip-vit-b16",
    ),
    Anchor(
        "footnote 2: CLIP ViT-B/16 text prompt-set encode on Jetson ~43 s",
        "module_time", "jetson-a", 43.0, module="clip-trf-38m", model="clip-vit-b16",
    ),
    Anchor(
        "Fig. 3: ViT-B/16 image encode on Jetson ~2.3 s",
        "module_time", "jetson-a", 2.3, module="clip-vit-b16-vision", model="clip-vit-b16",
    ),
]

#: Whole-model local (centralized, single-device) inference anchors, Table VI/VII.
MODEL_LOCAL_ANCHORS: List[Anchor] = [
    Anchor("Table VII: ViT-B/16 local on Jetson", "model_local", "jetson-a", 45.19,
           model="clip-vit-b16"),
    Anchor("Table VII: ViT-B/16 on laptop", "model_local", "laptop", 3.02,
           model="clip-vit-b16"),
    Anchor("Table VII: ViT-B/16 on desktop", "model_local", "desktop", 3.46,
           model="clip-vit-b16"),
    Anchor("Table VII: ViT-B/16 on server w/o GPU", "model_local", "server-cpu", 6.70,
           model="clip-vit-b16"),
    Anchor("Table VI: ViT-B/32 local on Jetson", "model_local", "jetson-a", 44.26,
           model="clip-vit-b32"),
    Anchor("Table VI: ResNet-50 local on Jetson", "model_local", "jetson-a", 53.23,
           model="clip-rn50", rel_tol=0.5),
]

#: Model-loading anchors (footnote 1 and the Table VII end-to-end deltas).
LOAD_TIME_ANCHORS: List[Anchor] = [
    Anchor("footnote 1: CLIP ViT-B/16 load on Tesla P40 = 11.08 s", "load_time",
           "server", 11.08, model="clip-vit-b16"),
    Anchor("Table VII delta: ViT-B/16 load on Jetson ~15.18 s", "load_time",
           "jetson-a", 15.18, model="clip-vit-b16"),
    Anchor("Table VII delta: ViT-B/16 load on laptop ~2.29 s", "load_time",
           "laptop", 2.29, model="clip-vit-b16"),
    Anchor("Table VII delta: ViT-B/16 load on desktop ~1.49 s", "load_time",
           "desktop", 1.49, model="clip-vit-b16"),
]

#: Footnote 4 batch-scaling measurements (LLaVA-Next-7B on an L40S).
BATCH_ANCHORS = [(1, 1.28), (10, 4.90), (20, 9.16)]

ALL_ANCHORS: List[Anchor] = MODULE_TIME_ANCHORS + MODEL_LOCAL_ANCHORS + LOAD_TIME_ANCHORS
