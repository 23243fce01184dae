# ctest script: runs `exstream_cli --demo --tiered-reference on` and passes
# only if the CLI refuses the unknown flag with exit status 2 and names it.
#   cmake -DCLI=<path to exstream_cli> -P cli_rejects_unknown_flag.cmake
execute_process(COMMAND "${CLI}" --demo --tiered-reference on
                RESULT_VARIABLE status ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got '${status}'\n${err}")
endif()
if(NOT err MATCHES "unknown flag '--tiered-reference'")
  message(FATAL_ERROR "stderr does not name the unknown flag:\n${err}")
endif()
