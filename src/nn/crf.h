// Linear-chain CRF and fuzzy CRF losses (Sections 4.1 and 5.3.2).
//
// The standard CRF supplies the BiLSTM-CRF sequence labeler of Figure 4.
// The fuzzy variant implements Eq. 8: the numerator marginalizes over ALL
// label sequences consistent with a per-position set of allowed labels,
// which handles concepts whose words legitimately carry several classes
// ("village" as Location or Style).

#ifndef ALICOCO_NN_CRF_H_
#define ALICOCO_NN_CRF_H_

#include <memory_resource>
#include <string>
#include <vector>

#include "nn/graph.h"

namespace alicoco::nn {

/// Linear-chain CRF with learned transition, start and end scores.
/// Emissions are a T x L matrix produced by an upstream encoder.
class LinearChainCrf {
 public:
  LinearChainCrf(ParameterStore* store, const std::string& name,
                 int num_labels, Rng* rng);

  /// -log p(gold | emissions). `gold` holds one label id per timestep.
  Graph::Var NegLogLikelihood(Graph* g, Graph::Var emissions,
                              const std::vector<int>& gold);

  /// Fuzzy-CRF loss: -log sum_{y in allowed} p(y | emissions), where
  /// `allowed[t]` is the non-empty set of permissible labels at step t.
  Graph::Var FuzzyNegLogLikelihood(
      Graph* g, Graph::Var emissions,
      const std::vector<std::vector<int>>& allowed);

  /// MAP decoding of an emission matrix.
  std::vector<int> Viterbi(const Tensor& emissions) const;

  int num_labels() const { return num_labels_; }

 private:
  friend class LinearChainCrfTestPeer;

  struct Lattice {
    double log_z = 0;
    Tensor unary;  // T x L posterior marginals
    Tensor pair;   // L x L summed pairwise marginals
  };

  /// The T x L mask (row t at t * L, 1 = allowed) of per-step label sets.
  std::pmr::vector<unsigned char> AllowedMask(
      const std::vector<std::vector<int>>& sets,
      std::pmr::memory_resource* mr) const;

  /// Forward-backward in log space; an `allowed` mask restricts the lattice
  /// when non-null (disallowed states get -inf potential). The lattice and
  /// every buffer of the pass come from `mr`.
  Lattice ForwardBackward(const Tensor& emissions,
                          const unsigned char* allowed,
                          std::pmr::memory_resource* mr) const;

  /// Shared loss construction: log Z(full) - log Z(restricted to the
  /// `numerator` mask), with gradient (marginals_full -
  /// marginals_restricted).
  Graph::Var LatticeLoss(Graph* g, Graph::Var emissions,
                         const unsigned char* numerator);

  int num_labels_;
  Parameter* trans_;  // L x L: trans[i][j] = score of i -> j
  Parameter* start_;  // 1 x L
  Parameter* end_;    // 1 x L
};

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_CRF_H_
