"""treetp: exact analysis of matrices totally positive relative to a tree."""

from .exact_linalg import (
    ExactMatrix,
    IndexList,
    SylvesterInapplicableError,
    adjugate,
    det,
    matrix_from_text,
    matrix_to_text,
    minor,
    sign_pattern,
    submatrix,
    sylvester_rhs,
)
from .tree_model import (
    LabelledTree,
    SignVector,
    SigningVerdict,
    TreePath,
    enumerate_labelled_trees,
    is_signed_according_to,
    make_path,
    make_pitchfork,
    make_star,
    maximal_paths,
    parse_tree_spec,
    pendant_vertices,
    tree_from_text,
    tree_signing,
    tree_to_text,
)
from .positivity import (
    AdjointCheck,
    HypothesisReport,
    PMatrixReport,
    TpReport,
    TtpReport,
    check_adjoint_conclusion,
    is_p_matrix,
    is_t_tp,
    is_tp,
    path_matrix,
    pendant_deletion_hypothesis,
    predicted_adjoint_sign,
)
from .spectral import (
    Polynomial,
    RootInterval,
    SmallestEigen,
    SpectralSummary,
    char_poly,
    full_spectrum_numeric,
    real_roots,
    smallest_eig_vector,
)
from .conjecture_lab import (
    BatchReport,
    ConjectureVerdict,
    GenConfig,
    batch_verify,
    gen_candidate,
    report_from_json,
    report_to_json,
    sweep_trees,
    test_conjecture,
)
from .fixtures import FIXTURES, Fixture, get_fixture

__version__ = "0.1.0"
