/**
 * @file
 * Per-thread dynamic execution traces.
 *
 * The functional executor records, for every thread, the sequence of basic
 * blocks it executed and the memory accesses each execution issued. All
 * three timing models (VGIW, Fermi-SIMT, SGMF) replay these traces, which
 * guarantees that the architectures are compared on bit-identical work.
 *
 * Storage is compressed: TraceCache keeps every traced workload of a
 * sweep resident, and raw BlockExec/MemAccess arrays made the cache the
 * dominant memory consumer. Traces are therefore held as per-thread
 * delta-varint byte streams with an LZ-style run code for the loop
 * repetition that dominates real control flow, and the replay models
 * read them through forward-only ThreadCursor decoders — replay order
 * is strictly sequential per thread in all three models, so nothing
 * ever needs random access.
 *
 * Encoded format (per thread, two independent streams):
 *
 *  - exec stream: a sequence of tokens, one varint-led token per block
 *    execution. A LITERAL token is `zigzag(block - prevBlock) << 1 | 0`
 *    followed by `zigzag(succ - block)` and `numAccesses` varints. A
 *    RUN token is `((len << 2) | (dist - 1)) << 1 | 1` and copies `len`
 *    whole (block, succ, numAccesses) tuples from `dist` (1..4) tuples
 *    back, with periodic extension (len may exceed dist) — this captures
 *    straight-line loop bodies of up to four blocks as one or two bytes
 *    per iteration. `prevBlock` is the previously decoded tuple's block
 *    (0 initially).
 *
 *  - access stream: one varint per access,
 *    `zigzag(addr - prevAddr[isShared]) << 2 | isShared << 1 | isStore`,
 *    with separate previous-address chains for shared and global space
 *    (both 0 initially) so strided global streams are not disturbed by
 *    interleaved scratchpad traffic.
 *
 * Two orthogonal extensions serve the sweep hot path:
 *
 *  - External storage: a TraceSet can borrow its three arrays (thread
 *    index, exec bytes, access bytes) from a caller-owned backing — an
 *    mmap'd artifact-store blob — instead of owning vectors. Warm
 *    sweeps decode straight out of the mapping; nothing is copied or
 *    rematerialised. serializeInto()/deserialize() define the layout.
 *
 *  - Access interning: buildAccessIntern() decodes every thread's
 *    access stream once into a shared pool, deduplicating threads
 *    whose *encoded* streams are byte-identical (the delta chains
 *    start at zero per thread, so equal bytes imply equal decoded
 *    streams). Replays across all config points of a workload then
 *    read accesses from the pool instead of re-running the varint
 *    decoder per job — the PR 6 headroom item.
 */

#ifndef VGIW_INTERP_TRACE_HH
#define VGIW_INTERP_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/varint.hh"
#include "ir/kernel.hh"

namespace vgiw
{

/** One dynamic memory access. */
struct MemAccess
{
    uint32_t addr = 0;     ///< byte address (scratchpad-relative if shared)
    bool isStore = false;
    bool isShared = false;
};

/** One dynamic execution of a basic block by one thread. */
struct BlockExec
{
    uint16_t block = 0;
    int16_t succ = -1;  ///< next block id, or -1 when the thread exits
    uint32_t accessBegin = 0;  ///< range into ThreadTrace::accesses
    uint32_t accessEnd = 0;
};

/** The full dynamic trace of one thread, materialised. */
struct ThreadTrace
{
    std::vector<BlockExec> execs;
    std::vector<MemAccess> accesses;
};

/**
 * Forward-only decoder over one thread's compressed trace. The replay
 * models hold one cursor per thread: the current block execution is
 * exposed through block()/succ()/numAccesses(), its accesses are pulled
 * with nextAccess(), and nextExec() advances to the next execution
 * (skipping any accesses the caller did not consume, so the delta
 * chains stay in sync). Cheap to copy: 88 bytes of state, and a replay
 * holds one per thread, so every byte saved is cache the loop keeps.
 *
 * Block ids are held in 16 bits (unsigned block, signed successor),
 * the same range BlockExec stores, and the previous tuple's block —
 * the literal token's delta base — is the current tuple's.
 *
 * When the owning TraceSet has an access intern table, accesses are
 * served from the pre-decoded pool (one pointer bump) instead of the
 * varint decoder; the observable sequence is identical by construction.
 */
class ThreadCursor
{
  public:
    ThreadCursor() = default;

    /** True when every block execution has been consumed. */
    bool done() const { return !hasCur_; }

    /** Current execution's block id. */
    int block() const { return int(cur_.block); }

    /** Current execution's successor block id (-1 = thread exit). */
    int succ() const { return int(cur_.succ); }

    /** Accesses the current execution issues. */
    uint32_t numAccesses() const { return cur_.nacc; }

    /** Decode the next access of the current execution. */
    MemAccess
    nextAccess()
    {
        --accLeft_;
        if (pool_)
            return *pool_++;
        const uint64_t v = varint::decode(ap_);
        MemAccess a;
        a.isStore = v & 1;
        a.isShared = (v >> 1) & 1;
        uint32_t &prev = prevAddr_[a.isShared ? 1 : 0];
        prev = uint32_t(int64_t(prev) + varint::unzigzag(v >> 2));
        a.addr = prev;
        return a;
    }

    /** Advance to the next block execution (or done()). */
    void
    nextExec()
    {
        if (pool_) {
            pool_ += accLeft_;  // skip unconsumed accesses in O(1)
            accLeft_ = 0;
        } else {
            while (accLeft_)
                nextAccess();
        }
        if (execsLeft_) {
            --execsLeft_;
            decodeExec();
        } else {
            hasCur_ = false;
        }
    }

  private:
    friend class TraceSet;

    /** One decoded (block, successor, access count) tuple. */
    struct Tup
    {
        uint16_t block = 0;
        int16_t succ = 0;
        uint32_t nacc = 0;
    };

    ThreadCursor(const uint8_t *exec, const uint8_t *acc,
                 uint32_t num_execs, const MemAccess *pool = nullptr)
        : ep_(exec), ap_(acc), pool_(pool), execsLeft_(num_execs)
    {
        if (execsLeft_) {
            --execsLeft_;
            decodeExec();
            hasCur_ = true;
        }
    }

    void
    decodeExec()
    {
        // A run repeat — a loop iteration, the bulk of most traces — is
        // a copy from the ring; only a fresh token needs decodeToken().
        if (runLeft_) {
            --runLeft_;
            cur_ = ring_[(ringPos_ + 4 - runDist_) & 3];
        } else {
            decodeToken();
        }
        ring_[ringPos_] = cur_;
        ringPos_ = uint8_t((ringPos_ + 1) & 3);
        accLeft_ = cur_.nacc;
    }

    /**
     * Decode the next exec-stream token into cur_. Kept apart from
     * decodeExec() so that the run path stays small enough to inline
     * into the replay loops.
     */
    void
    decodeToken()
    {
        uint64_t v = varint::decode(ep_);
        if (v & 1) {
            v >>= 1;
            runDist_ = uint8_t((v & 3) + 1);
            runLeft_ = uint32_t(v >> 2) - 1;
            cur_ = ring_[(ringPos_ + 4 - runDist_) & 3];
        } else {
            // Literal: the delta base is the previous tuple's block,
            // which cur_ still holds (0 before the first).
            const int64_t block =
                int64_t(cur_.block) + varint::unzigzag(v >> 1);
            cur_.block = uint16_t(block);
            cur_.succ =
                int16_t(block + varint::unzigzag(varint::decode(ep_)));
            cur_.nacc = uint32_t(varint::decode(ep_));
        }
    }

    const uint8_t *ep_ = nullptr;  ///< exec stream read position
    const uint8_t *ap_ = nullptr;  ///< access stream read position
    const MemAccess *pool_ = nullptr;  ///< next interned access, or null
    uint32_t execsLeft_ = 0;       ///< execs not yet decoded
    uint32_t accLeft_ = 0;         ///< undecoded accesses of cur_
    uint32_t prevAddr_[2] = {0, 0};  ///< [global, shared] delta chains
    uint32_t runLeft_ = 0;
    Tup cur_;
    Tup ring_[4];                  ///< last 4 decoded tuples (run window)
    uint8_t ringPos_ = 0;
    uint8_t runDist_ = 0;
    bool hasCur_ = false;
};
static_assert(sizeof(ThreadCursor) == 88,
              "ThreadCursor is one per replayed thread: keep it small");

/**
 * Compressed traces for every thread of a launch, plus launch metadata.
 *
 * @warning TraceSet borrows the kernel: the Kernel object passed to
 * Interpreter::run() (e.g. the WorkloadInstance that owns it) must
 * outlive every use of the traces by the core models. An externally
 * backed TraceSet (deserialize()) additionally borrows its streams
 * from the backing it was given; the shared backing pointer keeps the
 * mapping alive for the TraceSet's lifetime.
 */
class TraceSet
{
  public:
    const Kernel *kernel = nullptr;
    LaunchParams launch;

    /**
     * FNV-1a of the kernel's printed IR, or 0 when not computed. Set by
     * the trace cache when an artifact store is attached; the compile
     * cache keys per-arch artifacts by it (content addressing survives
     * workload renames, and two identical kernels share artifacts).
     */
    uint64_t contentHash = 0;
    /** Streams are served from an artifact-store mapping (warm load). */
    bool storeBacked = false;
    /** Payload bytes mmap'd for this trace set (0 when cold). */
    uint64_t mappedBytes = 0;

    TraceSet() = default;

    /**
     * Encode materialised per-thread traces. The accesses of each
     * thread must appear in execution order with each exec's
     * [accessBegin, accessEnd) ranges contiguous — which is how the
     * functional executor lays them out.
     */
    static TraceSet fromThreads(const Kernel *kernel,
                                const LaunchParams &launch,
                                const std::vector<ThreadTrace> &threads);

    size_t numThreads() const { return extIndex_ ? extThreads_ : index_.size(); }

    /** A fresh decode cursor over thread @p tid's trace. */
    ThreadCursor
    thread(uint32_t tid) const
    {
        const ThreadIndex &ix = idx(tid);
        const AccessIntern *in = intern_.get();
        return ThreadCursor(execData() + ix.execOff,
                            accessData() + ix.accessOff, ix.numExecs,
                            in ? in->pool.data() + in->offset[tid]
                               : nullptr);
    }

    uint32_t numExecs(uint32_t tid) const { return idx(tid).numExecs; }
    uint32_t
    numAccesses(uint32_t tid) const
    {
        return idx(tid).numAccesses;
    }

    /** Materialise one thread's full trace (tests / inspection). */
    ThreadTrace decodeThread(uint32_t tid) const;

    /** Total dynamic block executions over all threads. */
    uint64_t totalBlockExecs() const { return totalExecs_; }

    /** Total dynamic memory accesses over all threads. */
    uint64_t totalAccesses() const { return totalAccesses_; }

    /** Dynamic executions of block @p b summed over threads. */
    uint64_t blockExecCount(int b) const;

    /** Resident size of the encoded streams. */
    size_t
    compressedBytes() const
    {
        return size_t(execLen() + accessLen());
    }

    /** What the raw BlockExec/MemAccess arrays would occupy. */
    uint64_t
    uncompressedBytes() const
    {
        return totalExecs_ * sizeof(BlockExec) +
               totalAccesses_ * sizeof(MemAccess);
    }

    // --- Persistence (artifact store) --------------------------------

    /**
     * Append the wire form — a fixed header, the thread index, then
     * the two byte streams — to @p out. Everything but the borrowed
     * kernel/launch (which the cache key pins) round-trips.
     */
    void serializeInto(std::string &out) const;

    /**
     * Rebuild a TraceSet over @p data (length @p len) produced by
     * serializeInto, zero-copy: the index and streams stay in the
     * backing, which the result holds alive. @p data must be 8-aligned
     * (artifact-store payloads are). Returns false — leaving @p out
     * untouched — on any structural mismatch: short buffer, lengths
     * that do not add up, or a non-monotone thread index. @p kernel
     * and @p launch are the caller's (key-matched) kernel identity.
     */
    static bool deserialize(const uint8_t *data, size_t len,
                            std::shared_ptr<const void> backing,
                            const Kernel *kernel,
                            const LaunchParams &launch, TraceSet &out);

    // --- Access interning --------------------------------------------

    /**
     * Decode every thread's access stream once into a shared pool,
     * deduplicating byte-identical encoded streams, so subsequent
     * cursors serve accesses without varint decoding. Idempotent; call
     * before the TraceSet is shared across threads (the trace cache
     * does, before publishing its entry). Trades one materialised copy
     * per workload for per-job decode work — shared across every
     * config point of the sweep.
     */
    void buildAccessIntern();

    bool hasAccessIntern() const { return intern_ != nullptr; }
    /** Distinct encoded access streams (== threads when none collide). */
    uint64_t internUniqueStreams() const
    {
        return intern_ ? intern_->uniqueStreams : 0;
    }
    /** Bytes of decoded MemAccess pool the intern table holds. */
    uint64_t internPoolBytes() const
    {
        return intern_ ? intern_->pool.size() * sizeof(MemAccess) : 0;
    }

  private:
    struct ThreadIndex
    {
        uint64_t execOff = 0;    ///< offset into the exec stream
        uint64_t accessOff = 0;  ///< offset into the access stream
        uint32_t numExecs = 0;
        uint32_t numAccesses = 0;
    };
    static_assert(sizeof(ThreadIndex) == 24,
                  "on-disk thread index layout is pinned");

    /** Decoded-access pool shared by all cursors of this TraceSet. */
    struct AccessIntern
    {
        std::vector<MemAccess> pool;
        std::vector<uint64_t> offset;  ///< per thread, index into pool
        uint64_t uniqueStreams = 0;
    };

    const uint8_t *
    execData() const
    {
        return extExec_ ? extExec_ : execBytes_.data();
    }
    const uint8_t *
    accessData() const
    {
        return extAccess_ ? extAccess_ : accessBytes_.data();
    }
    uint64_t
    execLen() const
    {
        return extIndex_ ? extExecLen_ : execBytes_.size();
    }
    uint64_t
    accessLen() const
    {
        return extIndex_ ? extAccessLen_ : accessBytes_.size();
    }
    const ThreadIndex &
    idx(uint32_t tid) const
    {
        return extIndex_ ? extIndex_[tid] : index_[tid];
    }
    /** Encoded byte span of thread @p tid's access stream. */
    uint64_t accessSpanLen(uint32_t tid) const;

    // Owned storage (fromThreads) ...
    std::vector<uint8_t> execBytes_;
    std::vector<uint8_t> accessBytes_;
    std::vector<ThreadIndex> index_;
    // ... or borrowed views into an mmap'd backing (deserialize).
    const ThreadIndex *extIndex_ = nullptr;
    const uint8_t *extExec_ = nullptr;
    const uint8_t *extAccess_ = nullptr;
    uint64_t extThreads_ = 0;
    uint64_t extExecLen_ = 0;
    uint64_t extAccessLen_ = 0;
    std::shared_ptr<const void> backing_;

    std::shared_ptr<const AccessIntern> intern_;

    uint64_t totalExecs_ = 0;
    uint64_t totalAccesses_ = 0;
};

} // namespace vgiw

#endif // VGIW_INTERP_TRACE_HH
