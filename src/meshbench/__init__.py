"""meshbench: hierarchical mesh datasets, benchmark scoring, and a
morphing/POD/GP surrogate pipeline with a deterministic synthetic generator.
"""

__version__ = "0.1.0"

from .dataset import (Dataset, PredictionBundle, ProblemDefinition,
                      SamplePrediction, datasets_equal, validate_dataset)
from .errors import MeshBenchError
from .gp import Kernel, gp_fit, gp_predict, kernel_eval
from .metrics import (
    ScoreReport,
    load_bundle,
    rrmse_field,
    rrmse_scalar,
    save_bundle,
    score_hidden,
    score_test_split,
    total_error,
)
from .mmgp import MmgpConfig, MmgpModel, load_model, mmgp_fit, mmgp_predict, save_model
from .morphing import (
    SurfaceMesh2D,
    build_surface_mesh,
    extract_boundary_loop,
    tutte_embed,
)
from .pod import PodBasis, pod_fit, pod_project, pod_reconstruct
from .sample import Sample, samples_equal
from .storage import load_dataset, participant_export, save_dataset
from .synthetic import SynthConfig, generate
from .transfer import TransferOperator, apply_transfer, build_transfer
from .tree import (
    Base,
    ElementBlock,
    ElementType,
    FieldArray,
    LinkSpec,
    Location,
    MeshTree,
    TagKind,
    TagSet,
    ValidationReport,
    Zone,
    ZoneType,
    build_tree,
    implicit_connectivity,
    make_field,
    make_structured_zone,
    make_tag,
    make_unstructured_zone,
    resolve_links,
    trees_equal,
    validate_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
