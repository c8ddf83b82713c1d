// Compatibility stub for perfbench, the one remaining reader: it includes
// this header and refuses to time a run while GetLockStatsSink() returns
// non-null. Mutexes carry no instrumentation, so no sink can exist and the
// answer is always nullptr. ROADMAP item 1's benchmark change drops
// perfbench's include and deletes this file.

#ifndef ALICOCO_COMMON_LOCK_STATS_H_
#define ALICOCO_COMMON_LOCK_STATS_H_

namespace alicoco {

class LockStatsSink;

inline LockStatsSink* GetLockStatsSink() { return nullptr; }

}  // namespace alicoco

#endif  // ALICOCO_COMMON_LOCK_STATS_H_
