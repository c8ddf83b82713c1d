#include "kg/persistence.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace alicoco::kg {
namespace {
constexpr const char* kHeader = "ALICOCO_NET v1";

/// Plausibility cap for any single section's element count. A snapshot
/// section bigger than this cannot come from a real net; treating it as
/// corruption keeps one flipped length field from driving the load loops
/// (and every allocation behind them) to arbitrary sizes.
constexpr size_t kMaxSectionCount = size_t{1} << 26;

/// Exception-safe numeric field parsers. std::stoul/std::stod throw on
/// garbage and silently accept trailing junk; a corrupt snapshot must
/// surface as Status::Corruption instead of an uncaught exception.
Status ParseU64(const std::string& field, uint64_t* out) {
  try {
    size_t used = 0;
    unsigned long long v = std::stoull(field, &used);
    if (used != field.size()) {
      return Status::Corruption("bad numeric field: " + field);
    }
    *out = v;
    return Status::OK();
  } catch (...) {
    return Status::Corruption("bad numeric field: " + field);
  }
}

Status ParseU32(const std::string& field, uint32_t* out) {
  uint64_t wide = 0;
  ALICOCO_RETURN_NOT_OK(ParseU64(field, &wide));
  if (wide > 0xFFFFFFFFull) {
    return Status::Corruption("id field out of range: " + field);
  }
  *out = static_cast<uint32_t>(wide);
  return Status::OK();
}

Status ParseF64(const std::string& field, double* out) {
  try {
    size_t used = 0;
    double v = std::stod(field, &used);
    if (used != field.size()) {
      return Status::Corruption("bad numeric field: " + field);
    }
    *out = v;
    return Status::OK();
  } catch (...) {
    return Status::Corruption("bad numeric field: " + field);
  }
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= line.size()) {
    size_t pos = line.find('\t', start);
    if (pos == std::string::npos) pos = line.size();
    out.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

Status ReadSectionHeader(std::istream& in, const std::string& expect,
                         size_t* count) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("missing section " + expect);
  }
  auto parts = SplitWhitespace(line);
  if (parts.size() != 2 || parts[0] != expect) {
    return Status::Corruption("bad section header, expected " + expect +
                              " got: " + line);
  }
  uint64_t value = 0;
  ALICOCO_RETURN_NOT_OK(ParseU64(parts[1], &value));
  if (value > kMaxSectionCount) {
    return Status::Corruption("implausible count in section " + expect +
                              ": " + parts[1]);
  }
  *count = value;
  return Status::OK();
}

}  // namespace

Status SaveConceptNet(const ConceptNet& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << kHeader << "\n";

  const Taxonomy& tax = net.taxonomy();
  out << "TAXONOMY " << (tax.size() - 1) << "\n";  // root is implicit
  for (size_t i = 1; i < tax.size(); ++i) {
    const ClassInfo& c = tax.Get(ClassId(static_cast<uint32_t>(i)));
    out << c.parent.value << '\t' << c.name << "\n";
  }

  const auto& rels = net.schema().relations();
  out << "SCHEMA " << rels.size() << "\n";
  for (const auto& r : rels) {
    out << r.domain.value << '\t' << r.range.value << '\t' << r.name << "\n";
  }

  out << "PRIMITIVE " << net.num_primitive_concepts() << "\n";
  for (const auto& p : net.primitives()) {
    out << p.cls.value << '\t' << p.surface << '\t'
        << JoinStrings(p.gloss, " ") << "\n";
  }

  out << "EC " << net.num_ec_concepts() << "\n";
  for (const auto& ec : net.ec_concepts()) out << ec.surface << "\n";

  out << "ITEM " << net.num_items() << "\n";
  for (const auto& item : net.items()) {
    out << item.category.value << '\t' << JoinStrings(item.title, " ") << "\n";
  }

  // Edges. Each line: subject object.
  std::ostringstream isa, ec_isa, ec_prim, item_prim, item_ec, typed;
  size_t n_isa = 0, n_ec_isa = 0, n_ec_prim = 0, n_item_prim = 0,
         n_item_ec = 0;
  for (const auto& p : net.primitives()) {
    for (ConceptId h : net.Hypernyms(p.id)) {
      isa << p.id.value << '\t' << h.value << "\n";
      ++n_isa;
    }
  }
  for (const auto& ec : net.ec_concepts()) {
    for (EcConceptId parent : net.EcParents(ec.id)) {
      ec_isa << ec.id.value << '\t' << parent.value << "\n";
      ++n_ec_isa;
    }
    for (ConceptId prim : net.PrimitivesForEc(ec.id)) {
      ec_prim << ec.id.value << '\t' << prim.value << "\n";
      ++n_ec_prim;
    }
  }
  for (const auto& item : net.items()) {
    for (ConceptId prim : net.PrimitivesForItem(item.id)) {
      item_prim << item.id.value << '\t' << prim.value << "\n";
      ++n_item_prim;
    }
    for (EcConceptId ec : net.EcConceptsForItem(item.id)) {
      item_ec << item.id.value << '\t' << ec.value << '\t'
              << net.ItemEcProbability(item.id, ec) << "\n";
      ++n_item_ec;
    }
  }
  out << "ISA " << n_isa << "\n" << isa.str();
  out << "EC_ISA " << n_ec_isa << "\n" << ec_isa.str();
  out << "EC_PRIM " << n_ec_prim << "\n" << ec_prim.str();
  out << "ITEM_PRIM " << n_item_prim << "\n" << item_prim.str();
  out << "ITEM_EC " << n_item_ec << "\n" << item_ec.str();

  const auto& typed_rels = net.typed_relations();
  out << "TYPED " << typed_rels.size() << "\n";
  for (const auto& t : typed_rels) {
    out << t.subject.value << '\t' << t.object.value << '\t' << t.relation
        << "\n";
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<ConceptNet> LoadConceptNet(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line) || line != kHeader) {
    return Status::Corruption("bad header in " + path);
  }
  ConceptNet net;
  size_t count = 0;

  ALICOCO_RETURN_NOT_OK(ReadSectionHeader(in, "TAXONOMY", &count));
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) return Status::Corruption("truncated TAXONOMY");
    auto parts = SplitTabs(line);
    if (parts.size() != 2) return Status::Corruption("bad taxonomy line");
    uint32_t parent = 0;
    ALICOCO_RETURN_NOT_OK(ParseU32(parts[0], &parent));
    auto res = net.taxonomy().AddClass(parts[1], ClassId(parent));
    ALICOCO_RETURN_NOT_OK(res.status());
  }

  ALICOCO_RETURN_NOT_OK(ReadSectionHeader(in, "SCHEMA", &count));
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) return Status::Corruption("truncated SCHEMA");
    auto parts = SplitTabs(line);
    if (parts.size() != 3) return Status::Corruption("bad schema line");
    uint32_t domain = 0, range = 0;
    ALICOCO_RETURN_NOT_OK(ParseU32(parts[0], &domain));
    ALICOCO_RETURN_NOT_OK(ParseU32(parts[1], &range));
    ALICOCO_RETURN_NOT_OK(
        net.AddRelation(parts[2], ClassId(domain), ClassId(range)));
  }

  ALICOCO_RETURN_NOT_OK(ReadSectionHeader(in, "PRIMITIVE", &count));
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) return Status::Corruption("truncated PRIMITIVE");
    auto parts = SplitTabs(line);
    if (parts.size() != 3) return Status::Corruption("bad primitive line");
    uint32_t cls = 0;
    ALICOCO_RETURN_NOT_OK(ParseU32(parts[0], &cls));
    auto res = net.GetOrAddPrimitiveConcept(parts[1], ClassId(cls));
    ALICOCO_RETURN_NOT_OK(res.status());
    if (!parts[2].empty()) {
      ALICOCO_RETURN_NOT_OK(
          net.SetGloss(*res, SplitWhitespace(parts[2])));
    }
  }

  ALICOCO_RETURN_NOT_OK(ReadSectionHeader(in, "EC", &count));
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) return Status::Corruption("truncated EC");
    auto res = net.GetOrAddEcConcept(SplitWhitespace(line));
    ALICOCO_RETURN_NOT_OK(res.status());
  }

  ALICOCO_RETURN_NOT_OK(ReadSectionHeader(in, "ITEM", &count));
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) return Status::Corruption("truncated ITEM");
    auto parts = SplitTabs(line);
    if (parts.size() != 2) return Status::Corruption("bad item line");
    uint32_t category = 0;
    ALICOCO_RETURN_NOT_OK(ParseU32(parts[0], &category));
    auto res = net.AddItem(SplitWhitespace(parts[1]), ClassId(category));
    ALICOCO_RETURN_NOT_OK(res.status());
  }

  auto load_edges = [&](const char* section,
                        const std::function<Status(uint32_t, uint32_t,
                                                   const std::string&)>& add,
                        bool has_label) -> Status {
    size_t n = 0;
    ALICOCO_RETURN_NOT_OK(ReadSectionHeader(in, section, &n));
    for (size_t i = 0; i < n; ++i) {
      if (!std::getline(in, line)) {
        return Status::Corruption(std::string("truncated ") + section);
      }
      auto parts = SplitTabs(line);
      size_t expect = has_label ? 3 : 2;
      if (parts.size() != expect) {
        return Status::Corruption(std::string("bad edge line in ") + section);
      }
      uint32_t subject = 0, object = 0;
      ALICOCO_RETURN_NOT_OK(ParseU32(parts[0], &subject));
      ALICOCO_RETURN_NOT_OK(ParseU32(parts[1], &object));
      ALICOCO_RETURN_NOT_OK(
          add(subject, object, has_label ? parts[2] : std::string()));
    }
    return Status::OK();
  };

  ALICOCO_RETURN_NOT_OK(load_edges(
      "ISA",
      [&](uint32_t a, uint32_t b, const std::string&) {
        return net.AddIsA(ConceptId(a), ConceptId(b));
      },
      false));
  ALICOCO_RETURN_NOT_OK(load_edges(
      "EC_ISA",
      [&](uint32_t a, uint32_t b, const std::string&) {
        return net.AddEcIsA(EcConceptId(a), EcConceptId(b));
      },
      false));
  ALICOCO_RETURN_NOT_OK(load_edges(
      "EC_PRIM",
      [&](uint32_t a, uint32_t b, const std::string&) {
        return net.LinkEcToPrimitive(EcConceptId(a), ConceptId(b));
      },
      false));
  ALICOCO_RETURN_NOT_OK(load_edges(
      "ITEM_PRIM",
      [&](uint32_t a, uint32_t b, const std::string&) {
        return net.LinkItemToPrimitive(ItemId(a), ConceptId(b));
      },
      false));
  // ITEM_EC carries the edge probability as a third field (older snapshots
  // without it default to 1.0).
  {
    size_t n = 0;
    ALICOCO_RETURN_NOT_OK(ReadSectionHeader(in, "ITEM_EC", &n));
    for (size_t i = 0; i < n; ++i) {
      if (!std::getline(in, line)) {
        return Status::Corruption("truncated ITEM_EC");
      }
      auto parts = SplitTabs(line);
      if (parts.size() != 2 && parts.size() != 3) {
        return Status::Corruption("bad edge line in ITEM_EC");
      }
      double probability = 1.0;
      if (parts.size() == 3) {
        ALICOCO_RETURN_NOT_OK(ParseF64(parts[2], &probability));
      }
      uint32_t item = 0, ec = 0;
      ALICOCO_RETURN_NOT_OK(ParseU32(parts[0], &item));
      ALICOCO_RETURN_NOT_OK(ParseU32(parts[1], &ec));
      ALICOCO_RETURN_NOT_OK(
          net.LinkItemToEc(ItemId(item), EcConceptId(ec), probability));
    }
  }
  ALICOCO_RETURN_NOT_OK(load_edges(
      "TYPED",
      [&](uint32_t a, uint32_t b, const std::string& rel) {
        return net.AddTypedRelation(rel, ConceptId(a), ConceptId(b));
      },
      true));

  return net;
}

}  // namespace alicoco::kg
