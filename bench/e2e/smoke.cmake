# e2e_smoke: runs every workload on 5 tasks for one pass, oracle included,
# and fails on a non-zero exit or a result that is not correct.
#   cmake -DBIN=<path to frontiers_e2e> -P smoke.cmake
foreach(workload linear-chase guarded-rewrite datalog-chase sticky-fanout)
  execute_process(
    COMMAND ${BIN} --workload=${workload} --tasks=5 --passes=1
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output)
  if(NOT status EQUAL 0 OR NOT output MATCHES "\"correct\": true")
    message(FATAL_ERROR "${workload}: exit ${status}\n${output}")
  endif()
  message(STATUS "${workload}: ok")
endforeach()
