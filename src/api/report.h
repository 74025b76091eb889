// Shared quality reporting: one evaluator for every ArtifactKind, one table
// printer for examples, one JSON fragment for the CLI/bench emitters.
//
// Before this helper every example re-implemented its own metric printfs and
// every bench its own counter wiring; the columns drifted. Now "judge an
// artifact" is a single code path: trees get root-stretch columns, spanners
// edge-stretch and lightness columns, nets covering/separation certificates,
// and estimates copy their scalar quality from the diagnostics.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/artifact.h"
#include "api/registry.h"
#include "graph/graph.h"

namespace lightnet::api {

// Ordered metric name → value pairs; names are stable per kind.
struct QualityReport {
  std::vector<std::pair<std::string, double>> metrics;

  double value_or(const std::string& name, double fallback) const;
};

// Computes the kind's quality metrics with the exact sequential verifiers
// in graph/metrics. Trees cost four full searches. Spanners cost one
// early-stopped search per lower endpoint of a G-edge missing from the
// spanner, and nets one per net point (see graph/metrics.h).
QualityReport evaluate_artifact(const WeightedGraph& g, ArtifactKind kind,
                                const Artifact& artifact);

// {"name":value,...}
std::string to_json(const QualityReport& report);

// Fixed-width comparison table for the examples: columns are the union of
// metric names in insertion order; missing cells print "-".
class MetricTable {
 public:
  void add_row(std::string label, const QualityReport& report);
  void print(std::FILE* out) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<double>>> rows_;
};

}  // namespace lightnet::api
