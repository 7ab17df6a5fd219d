# Run a command under an environment and require an exit status and a
# one-line stderr message:
#   cmake -DCMD=<exe> -DENV=<NAME=value> -DWANT=<status> -P expect_exit.cmake
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${CMD}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT status STREQUAL "${WANT}")
    message(FATAL_ERROR "${ENV} ${CMD}: exit '${status}', want ${WANT}\n${err}")
endif()
string(STRIP "${err}" err)
if(err STREQUAL "" OR err MATCHES "\n")
    message(FATAL_ERROR "${ENV} ${CMD}: want one stderr line, got:\n${err}")
endif()
