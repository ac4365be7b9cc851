# Writes bench_git_sha.h for benchutil::Scorecard: the commit the tree
# at SOURCE_DIR has checked out, with "-dirty" when tracked files differ
# from it, or "unknown" when SOURCE_DIR is not a git checkout. Run at
# every build by the bench_git_sha target; OUT is rewritten only when
# the value changes, so an unchanged sha recompiles nothing.
#
#   cmake -DSOURCE_DIR=<repo> -DOUT=<header> -P git_sha.cmake
set(sha "unknown")
if(EXISTS "${SOURCE_DIR}/.git")
  execute_process(COMMAND git -C "${SOURCE_DIR}" rev-parse HEAD
                  OUTPUT_VARIABLE head RESULT_VARIABLE rc
                  OUTPUT_STRIP_TRAILING_WHITESPACE ERROR_QUIET)
  if(rc EQUAL 0)
    set(sha "${head}")
    execute_process(COMMAND git -C "${SOURCE_DIR}" diff --quiet HEAD --
                    RESULT_VARIABLE dirty ERROR_QUIET)
    if(NOT dirty EQUAL 0)
      string(APPEND sha "-dirty")
    endif()
  endif()
endif()
set(content "#define SAGE_BENCH_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
