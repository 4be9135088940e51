# Smoke test for the observability CLIs: genreuse_serve writes an event
# journal, a request trace and a health snapshot, then every
# `genreuse_inspect ...` command it prints for them is run as printed
# and must exit 0 with the artifact's schema header.
#   cmake -DSERVE=<genreuse_serve> -DINSPECT=<genreuse_inspect>
#         -DWORK_DIR=<scratch dir> -P observability_tools_smoke.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
    COMMAND "${SERVE}" --workers 2 --requests 16
        --events "${WORK_DIR}/ev.json"
        --rtrace "${WORK_DIR}/rt.json"
        --health "${WORK_DIR}/health.json"
        --audit --canary 0.5
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "genreuse_serve exited ${rc}\n${out}\n${err}")
endif()

# The hints read "(... genreuse_inspect <args>)" or "...; timeline: ...".
string(REGEX MATCHALL "genreuse_inspect [^);]+" hints "${out}")
list(LENGTH hints n_hints)
if(NOT n_hints EQUAL 3)
    message(FATAL_ERROR "expected 3 genreuse_inspect hints, got "
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

foreach(schema genreuse.events/1 genreuse.rtrace/1 genreuse.health/1)
    string(FIND "${rendered}" "[${schema}]" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "no [${schema}] header in:\n${rendered}")
    endif()
endforeach()
