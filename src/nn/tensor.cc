#include "nn/tensor.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"

namespace alicoco::nn {

Tensor Tensor::FromVector(int rows, int cols,
                          const std::vector<float>& data) {
  ALICOCO_CHECK(rows >= 0 && cols >= 0)
      << "FromVector negative shape " << rows << "x" << cols;
  ALICOCO_CHECK_EQ(static_cast<size_t>(rows) * static_cast<size_t>(cols),
                   data.size())
      << "FromVector shape mismatch for " << rows << "x" << cols;
  Tensor t(rows, cols);
  std::copy(data.begin(), data.end(), t.data_.begin());
  return t;
}

Tensor::Tensor(const Tensor& other, std::pmr::memory_resource* mr)
    : rows_(other.rows_), cols_(other.cols_), data_(other.size(), mr) {
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this != &other) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_.resize(other.size());
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  }
  return *this;
}

Tensor Tensor::Randn(int rows, int cols, float stddev, Rng* rng) {
  Tensor t(rows, cols);
  for (auto& v : t.data_) {
    v = stddev * static_cast<float>(rng->NextGaussian());
  }
  return t;
}

Tensor Tensor::Xavier(int rows, int cols, Rng* rng) {
  Tensor t(rows, cols);
  float bound = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (auto& v : t.data_) v = rng->UniformFloat(-bound, bound);
  return t;
}

void Tensor::AddInPlace(const Tensor& other) {
  ALICOCO_CHECK(SameShape(other));
  kernels::AddInto(data_.size(), other.data(), data());
}

void Tensor::Axpy(float scale, const Tensor& other) {
  ALICOCO_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Tensor::Scale(float s) {
  for (auto& v : data_) v *= s;
}

double Tensor::SquaredNorm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return acc;
}

Tensor MatMulValue(const Tensor& a, const Tensor& b,
                   std::pmr::memory_resource* mr) {
  ALICOCO_CHECK_EQ(a.cols(), b.rows())
      << "matmul shapes " << a.rows() << "x" << a.cols() << " * " << b.rows()
      << "x" << b.cols();
  Tensor c(a.rows(), b.cols(), mr);
  MatMulAccum(a, b, &c);
  return c;
}

void MatMulAccum(const Tensor& a, const Tensor& b, Tensor* c) {
  ALICOCO_CHECK(c != nullptr);
  ALICOCO_CHECK_EQ(a.cols(), b.rows());
  ALICOCO_CHECK_EQ(c->rows(), a.rows());
  ALICOCO_CHECK_EQ(c->cols(), b.cols());
  kernels::GemmAccum(a.rows(), a.cols(), b.cols(), a.data(), b.data(),
                     c->data());
}

void MatMulTransBAccum(const Tensor& a, const Tensor& b, Tensor* c) {
  // C (m x n) += A (m x k) * B^T where B is (n x k).
  ALICOCO_CHECK(c != nullptr);
  ALICOCO_CHECK_EQ(a.cols(), b.cols());
  ALICOCO_CHECK_EQ(c->rows(), a.rows());
  ALICOCO_CHECK_EQ(c->cols(), b.rows());
  kernels::GemmTransBAccum(a.rows(), a.cols(), b.rows(), a.data(), b.data(),
                           c->data());
}

void MatMulTransAAccum(const Tensor& a, const Tensor& b, Tensor* c) {
  // C (k x n) += A^T * B where A is (m x k), B is (m x n).
  ALICOCO_CHECK(c != nullptr);
  ALICOCO_CHECK_EQ(a.rows(), b.rows());
  ALICOCO_CHECK_EQ(c->rows(), a.cols());
  ALICOCO_CHECK_EQ(c->cols(), b.cols());
  kernels::GemmTransAAccum(a.rows(), a.cols(), b.cols(), a.data(), b.data(),
                           c->data());
}

}  // namespace alicoco::nn
