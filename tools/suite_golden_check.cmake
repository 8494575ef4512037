# Byte-identity pin: the full-suite --json output, plain and with
# --metrics, must hash to the SHA-256 digests below. Every simulated
# statistic reaches the plain output; the --metrics output adds the
# per-job counters, among them the Fermi scheduler's
# fermi.residency_scans and fermi.residency_scan_steps, so a scheduler
# rework that changes which warps a pick examines fails here even when
# the cycle counts survive. (The plain output's FNV-1a, the digest the
# perfbench rows check prints, is 05c3babf5831de08.)
#
# A change that means to alter results re-pins both digests here and
# says why in its description.
#
# Inputs: -DBIN=<vgiw_run> -DWORKDIR=<scratch dir>

set(PLAIN_SHA256
    a705f3cda136f9e1517aa75e5f2cd1a77ccc6aafdb89b1c1626ddb3ffdb1fc02)
set(METRICS_SHA256
    cbe9315b1322b1cbf98e2587176db8630c9baf05a0c07990d79729e5e5bb58e1)

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

foreach(leg plain metrics)
    set(json ${WORKDIR}/suite_${leg}.jsonl)
    set(extra)
    if(leg STREQUAL "metrics")
        set(extra --metrics)
    endif()
    execute_process(COMMAND ${BIN} --suite ${extra} --json ${json}
                    RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${leg} suite run failed (exit ${rc})")
    endif()
    string(TOUPPER ${leg} LEG)
    file(SHA256 ${json} got)
    if(NOT got STREQUAL ${LEG}_SHA256)
        message(FATAL_ERROR
                "${leg} suite JSON changed: SHA-256 ${got}, pinned "
                "${${LEG}_SHA256} (${json})")
    endif()
endforeach()
