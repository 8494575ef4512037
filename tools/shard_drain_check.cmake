# Graceful-drain acceptance check for shard mode:
#
#   cmake -DBIN=<vgiw_run> -DWORKDIR=<scratch dir>
#         -P shard_drain_check.cmake
#
# SIGTERM the coordinator mid-sweep. It must forward the drain to the
# worker fleet, wait for in-flight jobs, mark the rest drained, exit
# with the documented interrupted-and-drained code (4), and leave no
# worker processes behind.

if (NOT DEFINED BIN OR NOT DEFINED WORKDIR)
    message(FATAL_ERROR "BIN and WORKDIR must be defined")
endif ()

find_program(BASH bash REQUIRED)

set(pids "${WORKDIR}/pids")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
file(MAKE_DIRECTORY "${pids}")

# A fixed delay cannot be relied on to land mid-sweep: the whole suite
# finishes in under two seconds on a fast machine. Instead wait for the
# first worker's pidfile — written after the coordinator installed its
# drain handlers and forked the fleet — and signal shortly after, while
# most of the suite is still queued.
execute_process(
    COMMAND ${BASH} -c
            "VGIW_SHARD_PIDFILE_DIR='${pids}' \
             '${BIN}' --suite --shards 2 --json '${WORKDIR}/drain.json' \
             > '${WORKDIR}/stdout.txt' 2> '${WORKDIR}/stderr.txt' & \
             pid=$!; \
             for i in $(seq 600); do \
                 ls '${pids}'/worker-*.alive > /dev/null 2>&1 && break; \
                 sleep 0.05; \
             done; \
             sleep 0.2; kill -TERM $pid; wait $pid"
    RESULT_VARIABLE rc)
if (NOT rc EQUAL 4)
    file(READ "${WORKDIR}/stderr.txt" err)
    message(FATAL_ERROR
            "drained sweep must exit 4 (interrupted and drained), "
            "got rc=${rc}:\n${err}")
endif ()

file(READ "${WORKDIR}/stdout.txt" out)
if (NOT out MATCHES "not run: interrupted")
    message(FATAL_ERROR
            "stdout does not report the drained jobs:\n${out}")
endif ()

file(GLOB leftover "${pids}/worker-*.alive")
foreach (f ${leftover})
    file(READ "${f}" pid)
    string(STRIP "${pid}" pid)
    if (EXISTS "/proc/${pid}")
        message(FATAL_ERROR
                "worker pid ${pid} outlived the drained sweep (${f})")
    endif ()
endforeach ()
