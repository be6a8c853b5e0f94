from .tensor import (
    Param,
    Tensor,
    as_tensor,
    default_dtype,
    no_grad,
    concat,
    conv1d,
    gru_direction,
    log_softmax,
    max_last,
    relu,
    softmax,
    softmax_rows,
)
from .layers import BatchNorm1d, Conv1d, Dense, GruCell, Module
from .optim import Adam
from .gradcheck import gradient_check
from .checkpoint import CheckpointError, check_shapes, load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "BatchNorm1d",
    "CheckpointError",
    "Conv1d",
    "Dense",
    "GruCell",
    "Module",
    "Param",
    "Tensor",
    "as_tensor",
    "check_shapes",
    "concat",
    "conv1d",
    "default_dtype",
    "gradient_check",
    "gru_direction",
    "load_checkpoint",
    "log_softmax",
    "max_last",
    "no_grad",
    "relu",
    "save_checkpoint",
    "softmax",
    "softmax_rows",
]
