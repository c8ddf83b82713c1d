// lint-fixture: src/nn/bad_libm_tanh.cc

#include <cmath>

void Activate(int n, float* x) {
  for (int i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
  x[0] = tanhf(x[0]);
}
