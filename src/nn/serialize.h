// Binary (de)serialization of parameter stores (model checkpoints).

#ifndef ALICOCO_NN_SERIALIZE_H_
#define ALICOCO_NN_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "nn/graph.h"

namespace alicoco::nn {

/// Writes every parameter (name, shape, weights) to `path`.
[[nodiscard]] Status SaveParameters(const ParameterStore& store,
                                    const std::string& path);

/// Loads weights by parameter name into an already-constructed store.
/// Fails on missing names or shape mismatches; extra or repeated names in
/// the file are an error too (guards against loading the wrong checkpoint).
[[nodiscard]] Status LoadParameters(ParameterStore* store,
                                    const std::string& path);

}  // namespace alicoco::nn

#endif  // ALICOCO_NN_SERIALIZE_H_
