# Runs one CLI command in a fresh working directory and byte-compares one of
# its outputs with a committed golden file.
#
#   cmake -DWORKDIR=<dir> -DACTUAL=<file> -DEXPECTED=<golden> [-DSTDOUT=1]
#         [-DINPUT=<file>] [-DEXIT_CODE=<n>] -P check.cmake -- <program> <args...>
#
# WORKDIR is emptied first, so a command that resumes from its working files
# (a --dist workdir, say) always starts cold. INPUT, when given, is copied
# into WORKDIR, so a command that prints its input's path prints the same
# relative name on every machine. ACTUAL is relative to WORKDIR: the file
# the command writes, or where its stdout is captured when STDOUT is set.
# The command must exit with EXIT_CODE (default 0).

set(command)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "check.cmake: no command after --")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
if(INPUT)
  file(COPY "${INPUT}" DESTINATION "${WORKDIR}")
endif()
if(STDOUT)
  execute_process(COMMAND ${command} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc OUTPUT_FILE "${WORKDIR}/${ACTUAL}")
else()
  execute_process(COMMAND ${command} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc)
endif()
if(NOT EXIT_CODE)
  set(EXIT_CODE 0)
endif()
if(NOT rc EQUAL EXIT_CODE)
  message(FATAL_ERROR "command exited with ${rc}, not ${EXIT_CODE}: ${command}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORKDIR}/${ACTUAL}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${WORKDIR}/${ACTUAL} differs from ${EXPECTED}")
endif()
