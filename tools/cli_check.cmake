# Runs one command line and fails unless it exits with EXIT_CODE, its
# stderr contains STDERR and, when STDOUT is given, its stdout contains
# STDOUT. The `cli` ctest cases (tools/CMakeLists.txt) call it as
#   cmake -DEXIT_CODE=<n> -DSTDERR=<text> [-DSTDOUT=<text>]
#         -P cli_check.cmake -- <tool> [args...]
# An abort or a signal is reported as a non-numeric result, so it fails.
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(n RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${n}}")
  elseif(CMAKE_ARGV${n} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command}
  RESULT_VARIABLE result OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
string(JOIN " " shown ${command})
if(NOT result STREQUAL EXIT_CODE)
  message(FATAL_ERROR "${shown}: exited with '${result}', expected "
                      "${EXIT_CODE}\nstderr: ${stderr}")
endif()
string(FIND "${stderr}" "${STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${shown}: stderr lacks '${STDERR}'\nstderr: ${stderr}")
endif()
if(DEFINED STDOUT)
  string(FIND "${stdout}" "${STDOUT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${shown}: stdout lacks '${STDOUT}'\nstdout: ${stdout}")
  endif()
endif()
