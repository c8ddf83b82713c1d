#include "tools/lint/sarif.h"

#include <cstdio>
#include <string_view>

#include "tools/lint/passes/passes.h"

namespace alicoco::lint {
namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      case '\r': out->append("\\r"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string WriteSarif(const std::vector<Finding>& findings) {
  std::string out;
  out.append("{\n");
  out.append(
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n");
  out.append("  \"version\": \"2.1.0\",\n");
  out.append("  \"runs\": [\n    {\n");
  out.append("      \"tool\": {\n        \"driver\": {\n");
  out.append("          \"name\": \"alicoco_lint\",\n");
  out.append("          \"rules\": [\n");

  bool first = true;
  auto emit_rule = [&out, &first](std::string_view id,
                                  std::string_view rationale) {
    if (!first) out.append(",\n");
    first = false;
    out.append("            {\"id\": ");
    AppendJsonString(std::string(id), &out);
    out.append(", \"shortDescription\": {\"text\": ");
    AppendJsonString(std::string(rationale), &out);
    out.append("}}");
  };
  for (const auto& rule : RuleRegistry()) {
    emit_rule(rule->id(), rule->rationale());
  }
  for (const PassInfo& pass : PassRegistry()) {
    emit_rule(pass.id, pass.rationale);
  }
  out.append("\n          ]\n        }\n      },\n");

  out.append("      \"results\": [");
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out.append(i == 0 ? "\n" : ",\n");
    out.append("        {\n          \"ruleId\": ");
    AppendJsonString(f.rule, &out);
    out.append(",\n          \"level\": \"warning\",\n");
    out.append("          \"message\": {\"text\": ");
    AppendJsonString(f.message, &out);
    out.append("},\n          \"locations\": [\n");
    out.append("            {\"physicalLocation\": {");
    out.append("\"artifactLocation\": {\"uri\": ");
    AppendJsonString(f.file, &out);
    out.append("}, \"region\": {\"startLine\": ");
    out.append(std::to_string(f.line < 1 ? 1 : f.line));
    out.append("}}}\n          ]\n        }");
  }
  out.append(findings.empty() ? "]\n" : "\n      ]\n");
  out.append("    }\n  ]\n}\n");
  return out;
}

}  // namespace alicoco::lint
