"""Self-affinity testing toolkit: simulation, estimation and Monte Carlo tests
for long-range dependent and Levy-stable return series."""

__version__ = "0.1.0"

from .analysis import (
    AnalyzeConfig,
    Classification,
    TestReport,
    analyze_index,
    classify_source,
)
from .errors import SelfAffineError
from .methods import METHODS, estimate, estimate_block, estimate_point
from .montecarlo import (
    CriticalValueTable,
    EstimateSample,
    PowerResult,
    build_critical_values,
    build_tables,
    critical_values,
    power_function,
    replicate,
    run_replications,
    summarize_sample,
)
from .scaling import (
    HurstEstimate,
    QGrid,
    ScaleGrid,
    estimate_fa,
    estimate_rra,
    partition_function,
    qgrid,
    rs_statistic,
    time_scale_grid,
)
from .simulate import (
    SimulationSpec,
    ar_recursive_spec,
    arfima_acf,
    arfima_spec,
    arfima_weights,
    generate,
    generate_block,
    lstable_spec,
    lstable_spec_for_hurst,
    niid_spec,
    student_t_spec,
)
from .spectral_tail import (
    DEstimate,
    Periodogram,
    estimate_gph,
    estimate_robinson,
    estimate_tail,
    periodogram,
)
from .timeseries import (
    ARModel,
    LogPricePath,
    PriceSeries,
    ReturnsSeries,
    SummaryStats,
    ar_filter,
    fit_ar,
    log_returns,
    normalize_transform,
    random_reorder,
    read_prices_csv,
    read_values_csv,
    summary_stats,
    write_values_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
