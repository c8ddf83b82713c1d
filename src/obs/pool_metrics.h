// ThreadPoolObserver -> metrics registry adapter: queue-depth gauge (with
// high-water mark), queue-wait and task-run latency histograms, and a
// completed-task counter, all under one name prefix.
//
//   obs::ThreadPoolMetrics pool_metrics(&registry, "pipeline.worker_pool");
//   ThreadPool pool(8);
//   pool.SetObserver(&pool_metrics);
//   ... registry now carries pipeline.worker_pool.queue_depth,
//       .queue_wait_us, .task_run_us, .tasks_completed

#ifndef ALICOCO_OBS_POOL_METRICS_H_
#define ALICOCO_OBS_POOL_METRICS_H_

#include <string>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace alicoco::obs {

class ThreadPoolMetrics : public ThreadPoolObserver {
 public:
  /// Instruments under `<prefix>.queue_depth` etc.; `registry` must
  /// outlive this adapter, and the adapter must outlive (or be detached
  /// from) the pool it observes.
  ThreadPoolMetrics(Registry* registry, const std::string& prefix);

  void OnQueueDepth(size_t depth) override;
  void OnTaskDone(double queue_wait_us, double run_us) override;

 private:
  Gauge* queue_depth_;
  Histogram* queue_wait_us_;
  Histogram* task_run_us_;
  Counter* tasks_completed_;
};

}  // namespace alicoco::obs

#endif  // ALICOCO_OBS_POOL_METRICS_H_
