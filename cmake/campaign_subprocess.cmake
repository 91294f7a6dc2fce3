# Subprocess-backend identity gate, run as a ctest via
#   cmake -DCLI=<campaign_cli> -DWORK_DIR=<scratch>
#         -P cmake/campaign_subprocess.cmake
#
# The same campaign runs once in-process and once through the subprocess
# backend at 1, 2 and 4 workers; all four JSON summaries must match byte
# for byte (the scale-out determinism contract of api/session.hpp). Two
# samplers are covered: the paper's uniform-k (discrete masks) and a crash
# window (continuous θ, a non-trivial latency-quantile stream).
# With -DOBS=ON the subprocess runs additionally carry
# --trace-out/--metrics-out/--progress; the JSON summaries must STILL be
# byte-identical to the uninstrumented single-process run (observability
# inertness across the process boundary).
#
# The 2- and 4-worker runs also pass through the *streaming* coordinator:
# the campaign is cut into about 4 blocks per worker (8 and 16) while at
# most max(2 × workers, 4) blocks (4 and 8) may sit past the fold
# frontier, so out-of-order completions may be buffered and folded in
# canonical order. Nothing here forces a claim to wait on the frontier;
# StreamedFoldBoundedByReorderWindow (tests/test_session_subprocess.cpp)
# drives that gate with a delaying worker wrapper.
if(NOT CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "campaign_subprocess.cmake needs -DCLI and -DWORK_DIR")
endif()

set(OBS_ARGS "")
if(OBS)
  set(OBS_ARGS --trace-out trace.json --metrics-out metrics.json --progress)
endif()

file(MAKE_DIRECTORY ${WORK_DIR})

foreach(sampler_args
    "--sampler;uniform"
    "--sampler;window;--k;2;--theta-lo;0;--theta-hi;800")
  set(common_args
      --replays 300 --procs 10 --eps 1 --tasks 40
      --instance-seed 11 --seed 99 --algos caft,ftsa ${sampler_args})

  execute_process(
    COMMAND ${CLI} ${common_args} --json single
    OUTPUT_QUIET
    RESULT_VARIABLE single_rc
    WORKING_DIRECTORY ${WORK_DIR})
  if(NOT single_rc EQUAL 0)
    message(FATAL_ERROR "campaign_cli (single-process run) exited with ${single_rc}")
  endif()

  foreach(workers 1 2 4)
    execute_process(
      COMMAND ${CLI} ${common_args} ${OBS_ARGS}
              --exec subprocess --workers ${workers} --json sub${workers}
      OUTPUT_QUIET
      RESULT_VARIABLE sub_rc
      WORKING_DIRECTORY ${WORK_DIR})
    if(NOT sub_rc EQUAL 0)
      message(FATAL_ERROR
        "campaign_cli (--exec subprocess --workers ${workers}) exited with ${sub_rc}")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/single_campaign.json
              ${WORK_DIR}/sub${workers}_campaign.json
      RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
      message(FATAL_ERROR
        "subprocess campaign summary at ${workers} worker(s) differs from "
        "the single-process summary (${sampler_args}) — the scale-out "
        "determinism contract is broken")
    endif()
  endforeach()
endforeach()

if(OBS)
  file(READ ${WORK_DIR}/trace.json trace_content)
  if(NOT trace_content MATCHES "worker-slot-")
    message(FATAL_ERROR "--trace-out carries no per-worker subprocess spans")
  endif()
  file(READ ${WORK_DIR}/metrics.json metrics_content)
  if(NOT metrics_content MATCHES "caft-metrics/v1")
    message(FATAL_ERROR "--metrics-out produced no caft-metrics/v1 document")
  endif()
  message(STATUS
    "subprocess campaign summaries identical at 1, 2 and 4 workers "
    "(streaming fold included) with observability on")
else()
  message(STATUS
    "subprocess campaign summaries identical at 1, 2 and 4 workers "
    "(streaming fold included)")
endif()
