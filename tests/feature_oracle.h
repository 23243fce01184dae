// FeatureOracle: the reference semantics of FeatureBuilder::Build.
//
// Rows in, features out, by the straightest route: each referenced event
// type's rows are read once, one raw series per (type, attribute) is folded
// row by row with TimeSeries::Append (rows that lack the attribute are
// skipped; Append drops the NaN of string values), and each spec is then
// computed from its raw series — the series itself, a count per window over
// the query interval (one bucketing pass), or ApplyWindowAggregate. There
// are no columns, scan views, tails, tiers or threads. FeatureBuilder's
// columnar archive scans and incremental tails must reproduce it bit for
// bit; the feature differential and property tests, the explain determinism
// test and bench_scan_view / bench_explain_qps compare against it.

#pragma once

#include <functional>
#include <vector>

#include "common/result.h"
#include "event/event.h"
#include "features/feature.h"

namespace exstream {

/// All rows of one event type, in archive append order. Rows outside the
/// query interval are allowed; the oracle filters them.
using FeatureRowSource = std::function<Result<std::vector<Event>>(EventTypeId)>;

/// \brief Materializes each spec over `interval` from `rows`, in spec order.
/// Errors (a non-positive window, a failing row source) are returned as is.
Result<std::vector<Feature>> OracleFeatures(const FeatureRowSource& rows,
                                            const std::vector<FeatureSpec>& specs,
                                            const TimeInterval& interval);

/// True iff both series hold the same timestamps and bit-identical values.
bool SameSeriesBits(const TimeSeries& a, const TimeSeries& b);

}  // namespace exstream
