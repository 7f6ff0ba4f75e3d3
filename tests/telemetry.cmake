# Telemetry checks driven through the command-line tools (registered in
# tests/CMakeLists.txt):
#
#   cmake -DMODE=reject -DREPORT=<chase_report> -DFIXTURE=<stream>
#         -DEXPECT=<finding>[|<finding>...] -P telemetry.cmake
#     `chase_report --check` must exit 1 on the fixture and report every
#     `|`-separated finding (each a regex) on stderr.
#
#   cmake -DMODE=pipeline -DBENCH=<exp_*> -DREPORT=<chase_report>
#         -DVALIDATE=<validate_telemetry> -DOUT=<dir> -P telemetry.cmake
#     Runs the bench under --trace= and --rounds=, then checks the stream
#     with `chase_report --check`, renders the trace's span profile (which
#     must show chase.round) and validates the trace.

function(run_checked expected_code)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected_code}")
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "`${command}` exited ${code}, want ${expected_code}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(run_stdout "${out}" PARENT_SCOPE)
  set(run_stderr "${err}" PARENT_SCOPE)
endfunction()

if(MODE STREQUAL "reject")
  run_checked(1 ${REPORT} ${FIXTURE} --check)
  string(REPLACE "|" ";" findings "${EXPECT}")
  foreach(finding IN LISTS findings)
    if(NOT run_stderr MATCHES "${finding}")
      message(FATAL_ERROR "missing finding '${finding}':\n${run_stderr}")
    endif()
  endforeach()
elseif(MODE STREQUAL "pipeline")
  file(REMOVE_RECURSE ${OUT})
  file(MAKE_DIRECTORY ${OUT})
  run_checked(0 ${BENCH} --trace=${OUT}/trace.json --rounds=${OUT}/rounds.jsonl)
  run_checked(0 ${REPORT} ${OUT}/rounds.jsonl --check)
  run_checked(0 ${REPORT} ${OUT}/trace.json)
  if(NOT run_stdout MATCHES "chase\\.round")
    message(FATAL_ERROR "trace profile lacks chase.round:\n${run_stdout}")
  endif()
  run_checked(0 ${VALIDATE} --trace ${OUT}/trace.json)
else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
