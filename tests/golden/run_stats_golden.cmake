# Work-counter golden: analyzes the seed-42 family member of 1000 lines
# (astral-cli emit-family) at --jobs=1 with --dump-stats and compares every
# counter with tests/golden/fam1000.stats.expected. The counters are
# deterministic work measures (closures, transfer and octagon operations,
# fixpoint iterations, inlined calls), so a change that is meant to alter
# speed only must leave them untouched. The wall-clock counter
# `analysis.total_ms` is dropped before the comparison.
#
# Invoked by CTest as:
#   cmake -DASTRAL_CLI=<path> -DSOURCE_DIR=<repo> [-DOUT_DIR=<dir>] \
#         -P run_stats_golden.cmake
#
# The member and a mismatching counter dump are written under OUT_DIR
# (default: a golden-actual/ directory next to the CLI binary).
#
# To regenerate the expectation after an intended change of the work done:
#   cmake -DASTRAL_CLI=<path> -DSOURCE_DIR=<repo> -DREGEN=1 \
#         -P run_stats_golden.cmake

if(NOT DEFINED ASTRAL_CLI OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "ASTRAL_CLI and SOURCE_DIR must be defined")
endif()
if(NOT DEFINED OUT_DIR)
  get_filename_component(OUT_DIR ${ASTRAL_CLI} DIRECTORY)
  set(OUT_DIR ${OUT_DIR}/golden-actual)
endif()
file(MAKE_DIRECTORY ${OUT_DIR})

set(member ${OUT_DIR}/fam1000.c)
set(expected_file ${SOURCE_DIR}/tests/golden/fam1000.stats.expected)

execute_process(COMMAND ${ASTRAL_CLI} emit-family --lines=1000 --seed=42
                OUTPUT_FILE ${member}
                ERROR_VARIABLE gen_err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "astral-cli emit-family exited with ${rc}:\n${gen_err}")
endif()

execute_process(COMMAND ${ASTRAL_CLI} ${member} --jobs=1 --dump-stats
                OUTPUT_QUIET
                ERROR_VARIABLE stats
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "astral-cli --dump-stats exited with ${rc}:\n${stats}")
endif()

# Drop the wall-clock counter and the input path of the header line.
string(REGEX REPLACE "analysis\\.total_ms = [0-9]+\n" "" stats "${stats}")
string(REGEX REPLACE "=== stats: [^\n]* ===" "=== stats: fam1000.c ==="
       stats "${stats}")

if(REGEN)
  file(WRITE ${expected_file} "${stats}")
  message(STATUS "regenerated ${expected_file}")
  return()
endif()

if(NOT EXISTS ${expected_file})
  message(FATAL_ERROR "missing expectation ${expected_file} "
                      "(run with -DREGEN=1 to create)")
endif()

file(READ ${expected_file} expected)
if(NOT stats STREQUAL expected)
  file(WRITE ${OUT_DIR}/fam1000.stats.actual "${stats}")
  message(FATAL_ERROR
      "work counters drifted from ${expected_file}\n"
      "actual saved to ${OUT_DIR}/fam1000.stats.actual\n"
      "--- expected ---\n${expected}\n--- actual ---\n${stats}")
endif()
message(STATUS "fam1000 work counters ok")
