# Runs PROGRAM with the ;-list ARGS and fails unless it exits with
# EXPECT_EXIT. Usage: cmake -DPROGRAM=... -DARGS="a;b" -DEXPECT_EXIT=N -P expect_exit.cmake
execute_process(COMMAND ${PROGRAM} ${ARGS} RESULT_VARIABLE result
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit '${result}', expected ${EXPECT_EXIT}\n${err}")
endif()
message(STATUS "exit ${result} as expected: ${err}")
