# Moves the previous bench_smoke record (CURRENT) aside to PREVIOUS so
# the new run can gate against it. A fresh tree has no CURRENT yet;
# then nothing moves and bench_diff's --allow-missing-baseline applies.
#   cmake -DCURRENT=<BENCH_smoke.json> -DPREVIOUS=<BENCH_smoke.prev.json>
#         -P rotate_smoke_baseline.cmake
if(EXISTS "${CURRENT}")
    file(RENAME "${CURRENT}" "${PREVIOUS}")
endif()
