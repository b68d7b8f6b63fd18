"""Two-stage discrete energy minimization for global pose hypothesis
generation, with Kabsch/ICP pose fitting and brute-force verification."""

from .model import (INF, UNLABELED, ContractViolation, GraphicalModel,
                    PartialLabeling, evaluate_energy, extend_partial,
                    induce_submodel)
from .trws import TrwsConfig, TrwsResult, extract_inliers, solve_trws
from .maxflow import FlowNetwork, MaxFlowResult, max_flow
from .qpbo import count_infinite_pairs, qpbo
from .posemodel import (HyperParams, STAGE_ONE_DEFAULTS, STAGE_TWO_DEFAULTS,
                        SceneObservation, build_sparse_neighborhood,
                        build_stage_one_model, build_stage_two_master,
                        pairwise_cost)
from .submodels import (Component, SubmodelSpec, connected_components,
                        enumerate_submodels, filter_components,
                        per_node_submodels, solve_decomposed, to_zero_form)
from .posefit import (DegenerateInput, Hypothesis, IcpConfig, Pose,
                      cluster_hypotheses, icp_refine, kabsch, pose_correct,
                      ransac_iterations, select_best)
from .synth import (ConfidenceModel, SceneBundle, SyntheticScenario,
                    default_scenario, generate_bundle, generate_scene,
                    load_scene, save_scene)
from .oracle import (OracleResult, brute_force, check_persistency,
                     verify_prop1)
from .pipeline import (PipelineConfig, canonical_report, desk_scale_config,
                       solve_scene)

__version__ = "0.1.0"
