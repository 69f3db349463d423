"""dlrmkit: recommendation-model kernels with deterministic training.

Sparse embedding bags in offsets/indices form, MLPs with exact
backpropagation, pairwise dot-product feature interaction, SGD/Adagrad,
random/synthetic/Criteo data pipelines with stack-distance trace synthesis,
and an in-process simulation of hybrid model/data parallelism that reproduces
serial training bit-for-bit.
"""

from .dense import (
    Matrix,
    RngStream,
    activation,
    activation_grad,
    dot,
    matmul,
)
from .embedding import (
    EmbeddingTable,
    LookupIndexError,
    SparseBatch,
    SparseRowGrad,
    lengths_from_offsets,
    lookup_backward,
    lookup_batch,
    offsets_from_lengths,
)
from .model import (
    DlrmConfig,
    DlrmModel,
    FmParams,
    MlpParams,
    bce_from_logits,
    dlrm_forward,
    embedding_param_count,
    fm_predict,
    fm_predict_naive,
    init_mlp,
    init_model,
    interact,
    interact_backward,
    interaction_width,
    mlp_backward,
    mlp_forward,
    mlp_param_count,
    param_count,
)
from .optim import Adagrad, Sgd, adagrad_step, make_optimizer, sgd_step
from .datagen import (
    CriteoSample,
    RandomDataSpec,
    TraceGenerator,
    TraceProfile,
    adjust_distribution,
    default_first_touch_floor,
    gen_dense_batch,
    gen_sparse_batch,
    generate_trace,
    load_profile,
    lru_hit_rate,
    parse_criteo,
    profile_trace,
    save_profile,
)
from .parallel import (
    CommLog,
    DevicePlan,
    ParallelTrainer,
    allreduce,
    allreduce_max,
    butterfly_shuffle,
    format_comm_report,
    inverse_shuffle,
    make_plan,
    partition_tables,
    shard_bounds,
    train_step,
)

__version__ = "0.1.0"
