# Runs one perfbench workload briefly and passes only when the benchmark
# exits 0 and its JSON result line — the last line of stdout — reports
# "correct": true (every output check held) and "failed": 0. Invoked as:
#   cmake -DBENCH=<binary> -DWORKLOAD=<name> -P perfbench_smoke.cmake
if(NOT DEFINED BENCH OR NOT DEFINED WORKLOAD)
  message(FATAL_ERROR "perfbench_smoke.cmake needs -DBENCH and -DWORKLOAD")
endif()

execute_process(
  COMMAND ${BENCH} --workload ${WORKLOAD} --seed 1 --seconds 0.1 --trace 0
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "perfbench ${WORKLOAD} exited ${run_rc}:\n${run_out}\n${run_err}")
endif()

string(STRIP "${run_out}" run_out)
string(REGEX MATCH "[^\n]*$" last_line "${run_out}")
if(NOT last_line MATCHES "\"correct\": true," OR
   NOT last_line MATCHES "\"failed\": 0,")
  message(FATAL_ERROR
    "perfbench ${WORKLOAD} failed its checks or operations:\n${run_out}\n${run_err}")
endif()
message(STATUS "${last_line}")
