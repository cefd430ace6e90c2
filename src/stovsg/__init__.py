"""Latency-aware 4-D scene graphs for delayed teleoperation streams.

Builds a per-frame object graph from segmented RGB-D detections, links
frames with identity and lifecycle edges, and grounds open-vocabulary
operator commands against the frame the operator was actually looking at
when they spoke — then follows the target forward to an up-to-date pose.
"""

from .assignment import min_cost_assignment
from .config import CONFIG_SCHEMA, EngineConfig, load_config, save_config
from .errors import EngineError, FormatError, InputRejected, NoAlignedFrame, NotFound
from .geometry import (
    DepthImage,
    centroid_and_size,
    iou,
    lift_mask,
    lift_pixel,
    project_point,
    union_box,
)
from .formats import (
    SUBGRAPH_SCHEMA,
    canonical_dumps,
    command_to_dict,
    decode_mask,
    dumps,
    encode_mask,
    graph_from_dict,
    graph_to_dict,
    parse_stream,
    parse_subgraph,
    read_command,
    read_commands,
    read_depth_file,
    read_graph,
    read_scenario,
    read_truth,
    scenario_from_dict,
    scenario_to_dict,
    serialize_subgraph,
    subgraph_payload,
    truth_to_dict,
    write_depth_file,
    write_graph,
    write_scenario,
    write_stream,
    write_truth,
)
from .metrics import (
    MetricsReport,
    evaluate,
    node_truth_map,
)
from .model import (
    APPEARED,
    DISAPPEARED,
    SAME_INSTANCE,
    AssociationOutcome,
    BoundingBox2D,
    CameraModel,
    Command,
    Detection,
    FrameGraph,
    LatencyTag,
    ObjectNode,
    PixelMask,
    RelationCandidate,
    SceneGraph4D,
    SpatialEdge,
    Track,
    cosine,
    empty_graph,
    normalize_label,
    validate_graph,
)
from .query import (
    STATUS_LIVE,
    STATUS_LOST,
    GroundingResult,
    QueryConfig,
    extract_subgraph,
    ground_command,
    score_nodes,
)
from .replay import (
    commands_from_scenario,
    format_suite,
    run_suite,
    run_trial,
)
from .sim import (
    FAMILIES,
    FAMILY_DISTRACTOR,
    FAMILY_MOVED_REFERENCE,
    FAMILY_OCCLUSION,
    FAMILY_TARGET_MOVED,
    GroundTruthLog,
    LatencyProfile,
    NoiseModel,
    ScenarioSpec,
    SimCommand,
    SimObject,
    generate_stream,
    make_random_scenario,
    make_scenario,
    noise_preset,
)
from .spatial import SpatialWeights, resolve_ambiguous, spatial_cost
from .store import (
    FrameInput,
    frame_at_operator_time,
    ingest_frame,
    ingest_sequence,
    lifecycle_events,
)
from .temporal import (
    CostMatrix,
    TemporalWeights,
    associate,
    build_cost_matrix,
    eligible_tracks,
    temporal_cost,
)

__version__ = "0.1.0"
