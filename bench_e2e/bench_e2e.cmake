# bench_e2e's build file. run.py passes it to the repository's build as
# CMAKE_PROJECT_INCLUDE, so it runs inside the top-level project() call:
# the benchmark then builds with the repository's own targets, build type
# and compile options, and no file outside this directory names it. The
# target is added at the end of the top-level CMakeLists.txt (a deferred
# call), once hermes_app exists.
include_guard(GLOBAL)
set(BENCH_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(bench_e2e_add_target)
  add_executable(bench_e2e "${BENCH_E2E_DIR}/bench_e2e.cc")
  target_link_libraries(bench_e2e PRIVATE hermes_app)
endfunction()

cmake_language(DEFER CALL bench_e2e_add_target)
