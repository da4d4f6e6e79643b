"""leakscope: white-box timing side-channel analysis for an HDL subset.

Pipeline: parse RTL sources into a design hierarchy, extract per-module
micro-event graphs, simulate stimuli cycle-accurately, measure per-instance
execution times, localize data-dependent timing differences to signals and
source lines, compute timing-path coverage, and drive all of it from a
dual-mutator fuzzing loop.
"""

from .corpus import BundledDut, DutProfile, dut_names, load_dut
from .coverage import (
    ConditionStep,
    CoverageReport,
    ModuleCoverage,
    PathCondition,
    StepKind,
    emit_sva,
    emit_sva_file,
    match_coverage,
    path_condition,
    replay_sva,
    sva_lint,
)
from .design import DesignHierarchy, ast_to_json, levelize, parse_design
from .diagnose import Diagnosis, diagnose
from .errors import (
    ClockNotFound,
    CombinationalLoop,
    EmptyGroup,
    ExpressionEvalError,
    LeakscopeError,
    NoDivergence,
    ParseError,
    PathNotInGraph,
    PortMismatch,
    RecursiveInstantiation,
    SignalMismatch,
    SimulationLimitError,
    StimulusError,
    StructuralMismatch,
    UnknownInstance,
    UnknownScope,
    UnresolvedIdentifier,
    VcdParseError,
)
from .fuzz import (
    CampaignResult,
    FuzzConfig,
    MutantBatch,
    Seed,
    fuzz_loop,
    operand_mutate,
    random_stimulus,
    structural_mutate,
)
from .leakage import (
    ExecutionTime,
    LeakageFinding,
    TimingDistribution,
    analyze,
    distributions,
    measure,
)
from .meg import (
    Meg,
    MegEdge,
    MegNode,
    MepResult,
    MicroEventPath,
    NodeKind,
    build_meg,
    build_megs,
    enumerate_meps,
    export_dot,
    export_json,
    find_mep,
)
from .reports import Format, render
from .simulator import (
    CompiledDesign,
    InitPolicy,
    SimulationTrace,
    TraceBundle,
    compile_design,
    simulate,
)
from .stimulus import (
    Stimulus,
    StimulusStep,
    load_stimulus,
    parse_tag,
    save_stimulus,
    stimulus_from_json,
    stimulus_to_json,
    validate_stimulus,
)
from .vcd import load_vcd, load_vcd_file, save_vcd, write_vcd

__version__ = "0.1.0"
