# Runs one paper bench from a fresh working directory and fails unless it
# exits 0, writes nothing to stderr, and prints exactly the GOLDEN file
# on stdout; a mismatch prints a unified diff. The `paper` ctest cases
# (tests/CMakeLists.txt) call it as
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DWORK_DIR=<dir> -P paper_check.cmake
# An abort or a signal is reported as a non-numeric result, so it fails.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/cwd")
set(stdout_file "${WORK_DIR}/stdout.txt")

execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORK_DIR}/cwd"
  RESULT_VARIABLE result OUTPUT_FILE "${stdout_file}" ERROR_VARIABLE stderr)
if(NOT result STREQUAL "0")
  message(FATAL_ERROR "${BENCH}: exited with '${result}'\nstderr: ${stderr}")
endif()
if(NOT stderr STREQUAL "")
  message(FATAL_ERROR "${BENCH}: wrote to stderr:\n${stderr}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${GOLDEN}" "${stdout_file}"
  RESULT_VARIABLE differs)
if(differs)
  # Straight to the test's output: message() would reflow the diff.
  execute_process(COMMAND diff -u "${GOLDEN}" "${stdout_file}")
  message(FATAL_ERROR "${BENCH}: stdout differs from ${GOLDEN}")
endif()
