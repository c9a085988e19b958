# One command-line check, run as `cmake -D<SETTING>=... -P check.cmake` in
# a directory it may write to (each ctest entry that tests/cli/
# CMakeLists.txt registers gets its own).
#
#   MODE=run         Runs CMD once. Its exit code must be in EXIT (default
#                    0), its stdout+stderr must match every MATCH regex and
#                    no NOMATCH regex, and the file JSON (if set) must
#                    parse as JSON and match every JSON_MATCH regex.
#   MODE=replay      Runs CMD twice, or CMD then CMD_SAME, and requires
#                    byte-identical outputs; with NEW_SEED it runs CMD once
#                    more under that seed and requires a different output.
#                    @SEED@ in a command becomes SEED (or NEW_SEED); @OUT@
#                    becomes the output file, else stdout is the output.
#                    Every run's exit code must be in EXIT; MATCH applies
#                    to the first output.
#   MODE=resilience  Runs CMD (exit 0); the serve report's tenant 1-3
#                    lines must read failed=0 faults=0 slo_violations=0,
#                    and tenant 0 must show injected>0.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()

# Runs the command in ARGN and fails unless its exit code is in EXIT. With
# an empty `out` its stdout+stderr are returned in `result`; otherwise the
# output goes to the file `out`: @OUT@ names it on the command line, or
# stdout is written there.
function(run_tool result out)
  set(cmd ${ARGN})
  string(FIND "${cmd}" "@OUT@" out_arg)
  list(TRANSFORM cmd REPLACE "@SEED@" "${seed}")
  list(TRANSFORM cmd REPLACE "@OUT@" "${out}")
  if(NOT out)
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE text ERROR_VARIABLE text)
  else()
    file(REMOVE "${out}")
    if(out_arg EQUAL -1)
      execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_FILE "${out}")
    else()
      execute_process(COMMAND ${cmd} RESULT_VARIABLE rc)
    endif()
  endif()
  if(NOT rc IN_LIST EXIT)
    message(FATAL_ERROR "exit ${rc} (allowed: ${EXIT}): ${cmd}\n${text}")
  endif()
  set(${result} "${text}" PARENT_SCOPE)
endfunction()

function(expect_match text what)
  foreach(re IN LISTS ARGN)
    if(NOT text MATCHES "${re}")
      message(FATAL_ERROR "${what} does not match '${re}'")
    endif()
  endforeach()
endfunction()

if(MODE STREQUAL "run")
  if(JSON)
    file(REMOVE "${JSON}")
  endif()
  run_tool(text "" ${CMD})
  message("${text}")
  expect_match("${text}" "output" ${MATCH})
  foreach(re IN LISTS NOMATCH)
    if(text MATCHES "${re}")
      message(FATAL_ERROR "output matches '${re}'")
    endif()
  endforeach()
  if(JSON)
    file(READ "${JSON}" doc)
    string(JSON type ERROR_VARIABLE err TYPE "${doc}")
    if(err)
      message(FATAL_ERROR "${JSON} is not JSON: ${err}")
    endif()
    expect_match("${doc}" "${JSON}" ${JSON_MATCH})
  endif()

elseif(MODE STREQUAL "replay")
  if(NOT CMD_SAME)
    set(CMD_SAME ${CMD})
  endif()
  set(seed ${SEED})
  run_tool(_ first.out ${CMD})
  run_tool(_ again.out ${CMD_SAME})
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  first.out again.out RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "equivalent runs differ: first.out vs again.out")
  endif()
  message("equivalent runs are byte-identical")
  if(DEFINED NEW_SEED)
    set(seed ${NEW_SEED})
    run_tool(_ new.out ${CMD})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    first.out new.out RESULT_VARIABLE differ)
    if(NOT differ)
      message(FATAL_ERROR "seeds ${SEED} and ${NEW_SEED} gave identical output")
    endif()
    message("seed ${NEW_SEED} differs from seed ${SEED}")
  endif()
  if(MATCH)
    file(READ first.out first)
    expect_match("${first}" "first.out" ${MATCH})
  endif()

elseif(MODE STREQUAL "resilience")
  run_tool(_ report.out ${CMD})
  file(READ report.out report)
  foreach(t 1 2 3)
    if(NOT report MATCHES "(^|\n)(tenant ${t}:[^\n]*)")
      message(FATAL_ERROR "no tenant ${t} line in report.out")
    endif()
    set(line "${CMAKE_MATCH_2}")
    foreach(field failed=0 faults=0 slo_violations=0)
      if(NOT " ${line} " MATCHES " ${field} ")
        message(FATAL_ERROR "bystander not clean: ${line}")
      endif()
    endforeach()
  endforeach()
  if(NOT report MATCHES "(^|\n)tenant 0: [^\n]*injected=([0-9]+)"
     OR CMAKE_MATCH_2 EQUAL 0)
    message(FATAL_ERROR "the storm never hit tenant 0")
  endif()
  message("bystanders clean; tenant 0 absorbed ${CMAKE_MATCH_2} faults")

else()
  message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()
