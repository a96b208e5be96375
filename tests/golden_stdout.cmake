# Runs PROGRAM with the space-separated ARGS and compares its stdout with
# GOLDEN byte for byte, keeping the output in OUTPUT to diff on a failure:
#   cmake -DPROGRAM=... "-DARGS=..." -DGOLDEN=... -DOUTPUT=... -P golden_stdout.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} OUTPUT_FILE "${OUTPUT}"
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${exit_code}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUTPUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: ${OUTPUT} differs from ${GOLDEN}")
endif()
