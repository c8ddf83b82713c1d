// Dense row-major float matrix — the value type of the autodiff graph.
//
// All models in this repo operate on small 2-D tensors (sequence length x
// feature dim, batch handled as an outer loop), so a matrix type suffices.
//
// Storage comes from a std::pmr::memory_resource: the heap by default, a
// graph's arena for the values and gradients a Graph makes (DESIGN §5).
// The standard pmr rules keep arena memory inside its graph: a copy
// (`Tensor t = g.Value(v)`) always lands on the default resource, and
// move-assigning into a tensor from another resource copies the elements.
// Only a move construction carries the source's resource along.

#ifndef ALICOCO_NN_TENSOR_H_
#define ALICOCO_NN_TENSOR_H_

#include <cstddef>
#include <memory_resource>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace alicoco::nn {

/// 2-D float matrix, row-major, zero-initialized.
class Tensor {
 public:
  Tensor() = default;
  Tensor(int rows, int cols)
      : Tensor(rows, cols, std::pmr::get_default_resource()) {}
  /// rows x cols of zeros whose storage comes from `mr`.
  Tensor(int rows, int cols, std::pmr::memory_resource* mr)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), 0.0f,
              mr) {
    ALICOCO_CHECK(rows >= 0 && cols >= 0);
  }
  /// An empty tensor that will allocate from `mr` once it is assigned.
  explicit Tensor(std::pmr::memory_resource* mr) : data_(mr) {}
  /// A copy of `other` whose storage comes from `mr`.
  Tensor(const Tensor& other, std::pmr::memory_resource* mr);
  // The copies zero-fill and then copy the floats: pmr::vector's own copy
  // constructs element by element through the allocator, several times
  // slower than a memmove.
  Tensor(const Tensor& other)
      : Tensor(other, std::pmr::get_default_resource()) {}
  Tensor(Tensor&&) = default;
  /// Keeps this tensor's resource.
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&&) = default;

  /// Copies a buffer; `data.size()` must equal rows*cols.
  static Tensor FromVector(int rows, int cols, const std::vector<float>& data);

  /// rows x cols of N(0, stddev) noise.
  static Tensor Randn(int rows, int cols, float stddev, Rng* rng);

  /// Xavier/Glorot uniform init for a fan_in x fan_out weight.
  static Tensor Xavier(int rows, int cols, Rng* rng);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(int r, int c) {
    ALICOCO_DCHECK(InBounds(r, c)) << "At(" << r << ", " << c << ") on "
                                   << rows_ << "x" << cols_;
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    ALICOCO_DCHECK(InBounds(r, c)) << "At(" << r << ", " << c << ") on "
                                   << rows_ << "x" << cols_;
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float* Row(int r) {
    ALICOCO_DCHECK(r >= 0 && r < rows_) << "Row(" << r << ") of " << rows_;
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const float* Row(int r) const {
    ALICOCO_DCHECK(r >= 0 && r < rows_) << "Row(" << r << ") of " << rows_;
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  bool SameShape(const Tensor& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  /// this += other (shapes must match).
  void AddInPlace(const Tensor& other);

  /// this += scale * other.
  void Axpy(float scale, const Tensor& other);

  /// Scales all entries.
  void Scale(float s);

  /// Frobenius-norm squared.
  double SquaredNorm() const;

 private:
  bool InBounds(int r, int c) const {
    return r >= 0 && r < rows_ && c >= 0 && c < cols_;
  }

  int rows_ = 0;
  int cols_ = 0;
  std::pmr::vector<float> data_;
};

/// C = A * B (shapes validated), stored in `mr`.
Tensor MatMulValue(
    const Tensor& a, const Tensor& b,
    std::pmr::memory_resource* mr = std::pmr::get_default_resource());

/// C += A * B.
void MatMulAccum(const Tensor& a, const Tensor& b, Tensor* c);

/// C += A * B^T.
void MatMulTransBAccum(const Tensor& a, const Tensor& b, Tensor* c);

/// C += A^T * B.
void MatMulTransAAccum(const Tensor& a, const Tensor& b, Tensor* c);

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_TENSOR_H_
