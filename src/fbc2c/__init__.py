"""Fixed-basis coefficient-to-coefficient operator learning.

Project input/output functions onto fixed basis systems (windowed random
features or 1D hat functions, each built from a ``BasisSpec``), learn the
coefficient map with a small network, and reproduce the standard
diagnostics: effective rank, cutoff sensitivity, output-space projection
floor, and resolution transfer.
"""

from .basis import BasisSpec, FemBasis1D, RfmBasis, VectorBasis
from .container import read_container, write_container
from .datagen import (FunctionDataset, make_darcy1d, make_multi_output_1d, make_poisson2d,
                      sample_grf_at, solve_darcy_1d, solve_poisson_2d_square)
from .encoder import EncodeSpec, diagnostics, encode, projection_error
from .experiment import (compare_vector_scalar, eval_resolutions, evaluate_on,
                         run, sweep_cutoff)
from .neuralop import (OperatorNet, TrainConfig, TrainTrace, forward, gradient,
                       init_net, learning_rate, relative_loss, train)

__version__ = "0.1.0"
