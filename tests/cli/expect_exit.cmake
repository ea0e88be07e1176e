# Runs one command-line tool case and checks its exit status and stderr:
#
#   cmake -DTOOL=<binary> -DARGS=<args, ';'-separated> -DEXIT=<status>
#         -DSTDERR=<substring stderr must contain> -P expect_exit.cmake
#
# Registered with add_test by tests/CMakeLists.txt. A build that made only
# some targets (say, meissa_tests alone) has no TOOL: the case reports
# itself skipped.
if(NOT EXISTS "${TOOL}")
  message("skipped: ${TOOL} is not built")
  return()
endif()
execute_process(COMMAND "${TOOL}" ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL EXIT)
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${status}, expected ${EXIT}\n"
                      "stderr:\n${err}")
endif()
string(FIND "${err}" "${STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr lacks '${STDERR}'\n"
                      "stderr:\n${err}")
endif()
