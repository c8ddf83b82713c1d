// Evaluation metrics used across all five AliCoCo modules.
//
// Ranking metrics (MAP / MRR / P@1 / P@K) follow the conventions of the
// hypernym-discovery evaluation in Section 7.3; classification metrics
// (AUC / precision / recall / F1) follow Sections 7.4-7.6; span-level F1
// with IOB decoding follows the NER evaluations of Sections 7.2 and 7.5.

#ifndef ALICOCO_EVAL_METRICS_H_
#define ALICOCO_EVAL_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace alicoco::eval {

/// One ranked query: candidate scores plus binary relevance labels.
struct RankedQuery {
  std::vector<double> scores;  ///< model score per candidate
  std::vector<int> labels;     ///< 1 = relevant, 0 = not
};

/// Average precision of one query (0 if it has no relevant candidate).
double AveragePrecision(const RankedQuery& q);

/// Reciprocal rank of the first relevant candidate (0 if none).
double ReciprocalRank(const RankedQuery& q);

/// Fraction of the top-k candidates that are relevant.
double PrecisionAtK(const RankedQuery& q, size_t k);

/// Means over a query set.
double MeanAveragePrecision(const std::vector<RankedQuery>& qs);
double MeanReciprocalRank(const std::vector<RankedQuery>& qs);
double MeanPrecisionAtK(const std::vector<RankedQuery>& qs, size_t k);

/// ROC AUC via rank statistic; ties share rank. Returns 0.5 when one class
/// is absent.
double Auc(const std::vector<double>& scores, const std::vector<int>& labels);

/// Point metrics at a decision threshold.
struct BinaryMetrics {
  double precision = 0;
  double recall = 0;
  double f1 = 0;
  double accuracy = 0;
  size_t tp = 0, fp = 0, tn = 0, fn = 0;
};

BinaryMetrics ComputeBinaryMetrics(const std::vector<double>& scores,
                                   const std::vector<int>& labels,
                                   double threshold = 0.5);

/// A labeled span decoded from an IOB sequence: [begin, end) with a type.
struct Span {
  size_t begin = 0;
  size_t end = 0;
  std::string type;
  bool operator==(const Span& o) const {
    return begin == o.begin && end == o.end && type == o.type;
  }
};

/// Decodes IOB tags ("B-Category", "I-Category", "O") into typed spans.
/// A stray "I-x" after "O" or a different type starts a new span (conll
/// convention).
std::vector<Span> DecodeIob(const std::vector<std::string>& tags);

/// Micro-averaged span precision/recall/F1 over a corpus of sentences.
BinaryMetrics SpanF1(const std::vector<std::vector<std::string>>& gold,
                     const std::vector<std::vector<std::string>>& pred);

/// A bootstrap confidence interval over per-query metric values.
struct ConfidenceInterval {
  double mean = 0;
  double lo = 0;   ///< lower percentile bound
  double hi = 0;   ///< upper percentile bound
};

/// Percentile-bootstrap CI of the mean: resamples `values` with replacement
/// `iterations` times. `confidence` in (0, 1), e.g. 0.95.
ConfidenceInterval BootstrapCi(const std::vector<double>& values,
                               int iterations, double confidence,
                               uint64_t seed);

/// Mean of a vector (0 for empty).
double Mean(const std::vector<double>& v);

}  // namespace alicoco::eval

#endif  // ALICOCO_EVAL_METRICS_H_
