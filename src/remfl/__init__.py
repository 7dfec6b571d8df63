"""Communication-efficient personalized federated learning for radio maps."""

from .compression import (QuantizedUpdate, accumulate, decode, dequantize,
                          encode, quantize, residual_update, top_k)
from .data import (ClientDataset, RadioMapGrid, ScenarioPartition,
                   SyntheticMapConfig, generate_synthetic_map, grid_partition,
                   heterogeneity, load_grid, save_grid, scenario_filter)
from .federation import RunConfig, RunResult, run_training
from .metrics import MetricBundle, ParetoPoint, pareto_frontier
from .nn import (BackboneParams, HeadParams, ModelDims, backbone_forward,
                 backward, head_forward, huber_loss, init_backbone, init_head)

__version__ = "0.1.0"
