"""EmbRace's 2D Communication Scheduling and baseline schedulers.

* :mod:`vertical` — Algorithm 1 (coalesce + prior/delayed split) on real
  sparse gradients, plus the empirical batch statistics behind Table 3;
* :mod:`horizontal` — Block-level Horizontal Scheduling priorities;
* :mod:`bytescheduler` — the tensor-partitioning priority scheduler the
  BytePS baseline integrates (Peng et al., SOSP'19);
* :mod:`tabular` — declarative stage x time pipeline schedules (GPipe,
  1F1B, NestPipe-style nested EmbRace) compiled to simulator graphs.
"""

from repro.schedule.vertical import (
    EmbeddingGradStats,
    measure_grad_stats,
    vertical_split,
)
from repro.schedule.horizontal import (
    PRIORITY_DELAYED,
    PRIORITY_PRIOR,
    horizontal_priorities,
)
from repro.schedule.bytescheduler import partition_tensor
from repro.schedule.tabular import (
    PIPELINE_SCHEDULES,
    SCHEDULE_NAMES,
    Cell,
    ScheduleCosts,
    TabularSchedule,
    build_schedule,
    bubble_fraction,
    compile_schedule,
    compile_strategy_schedule,
    data_parallel_schedule,
    gpipe_schedule,
    nested_embrace_schedule,
    one_f_one_b_schedule,
    schedule_costs_from_context,
)

__all__ = [
    "Cell",
    "TabularSchedule",
    "ScheduleCosts",
    "SCHEDULE_NAMES",
    "PIPELINE_SCHEDULES",
    "build_schedule",
    "data_parallel_schedule",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "nested_embrace_schedule",
    "compile_schedule",
    "compile_strategy_schedule",
    "schedule_costs_from_context",
    "bubble_fraction",
    "vertical_split",
    "EmbeddingGradStats",
    "measure_grad_stats",
    "horizontal_priorities",
    "PRIORITY_PRIOR",
    "PRIORITY_DELAYED",
    "partition_tensor",
]
