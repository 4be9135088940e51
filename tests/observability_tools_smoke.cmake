# Smoke test for the observability CLIs: genreuse_serve writes an event
# journal, a request trace, a health snapshot and a reuse audit, then
# every `genreuse_inspect ...` command it prints for them is run as
# printed and must exit 0 with the artifact's schema header. Canary
# events must render their payload, and a canary breach must reach the
# timeline.
#   cmake -DSERVE=<genreuse_serve> -DINSPECT=<genreuse_inspect>
#         -DWORK_DIR=<scratch dir> -P observability_tools_smoke.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND "${SERVE}" --workers 2 --requests 16
        --events "${WORK_DIR}/ev.json"
        --rtrace "${WORK_DIR}/rt.json"
        --health "${WORK_DIR}/health.json"
        --audit "${WORK_DIR}/audit.json" --canary 0.5
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "genreuse_serve exited ${rc}\n${out}\n${err}")
endif()

# The hints read "(... genreuse_inspect <args>)" or "...; timeline: ...".
string(REGEX MATCHALL "genreuse_inspect [^);]+" hints "${out}")
list(LENGTH hints n_hints)
if(NOT n_hints EQUAL 4)
    message(FATAL_ERROR "expected 4 genreuse_inspect hints, got "
                        "${n_hints}:\n${out}")
endif()

set(rendered "")
foreach(hint IN LISTS hints)
    string(REPLACE "genreuse_inspect " "" hint_args "${hint}")
    separate_arguments(hint_args UNIX_COMMAND "${hint_args}")
    execute_process(
        COMMAND "${INSPECT}" ${hint_args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE inspect_out
        ERROR_VARIABLE inspect_err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "'${hint}' exited ${rc}\n${inspect_out}\n"
                            "${inspect_err}")
    endif()
    string(APPEND rendered "${inspect_out}")
endforeach()

foreach(schema genreuse.events/1 genreuse.rtrace/1 genreuse.health/1
        genreuse.audit/1)
    string(FIND "${rendered}" "[${schema}]" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "no [${schema}] header in:\n${rendered}")
    endif()
endforeach()

# Every journaled canary_sample row shows its measurement.
execute_process(
    COMMAND "${INSPECT}" --last 4096 "${WORK_DIR}/ev.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE events_out
    ERROR_VARIABLE events_err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "inspect --last 4096 exited ${rc}\n${events_err}")
endif()
if(NOT events_out MATCHES "canary_sample[^\n]*error=[^\n]*budget=[^\n]*ewma=")
    message(FATAL_ERROR "canary_sample rows lack error/budget/ewma:\n"
                        "${events_out}")
endif()

# A breach needs overload level 2, which a short serve run cannot
# reach deterministically, so it comes from a hand-written journal.
file(WRITE "${WORK_DIR}/breach.json" [=[
{"schema": "genreuse.events/1", "reason": "smoke", "recorded": 2,
 "overwritten": 0, "capacity": 4096,
 "events": [
  {"seq": 1, "tsNs": 1000, "type": "forward_begin", "n": 1},
  {"seq": 2, "tsNs": 2000, "type": "canary_breach", "tag": "conv",
   "v0": 0.5, "v1": 0.05, "v2": 0.25, "n": 64, "k": 2}]}
]=])
execute_process(
    COMMAND "${INSPECT}" "${WORK_DIR}/breach.json"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE breach_out
    ERROR_VARIABLE breach_err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "inspect breach.json exited ${rc}\n${breach_err}")
endif()
string(FIND "${breach_out}" "timeline:" timeline_at)
string(FIND "${breach_out}" "last 2 events:" last_at)
if(timeline_at EQUAL -1 OR last_at EQUAL -1)
    message(FATAL_ERROR "no timeline for a canary breach:\n${breach_out}")
endif()
math(EXPR timeline_len "${last_at} - ${timeline_at}")
string(SUBSTRING "${breach_out}" ${timeline_at} ${timeline_len} timeline)
if(NOT timeline MATCHES "canary_breach[^\n]*conv[^\n]*error=0.5 budget=0.05 ewma=0.25 rows=64 overload_level=2")
    message(FATAL_ERROR "canary breach missing from the timeline:\n"
                        "${breach_out}")
endif()
