#!/bin/sh
# Static companion to Registry::GetOrCreate's runtime kind check: scans
# every Get{Counter,Gauge,Histogram}("literal") and
# Get{Counter,Gauge,Histogram}Vec("literal", "label_key") call site and
# fails the build if the same metric name is requested with two
# different kinds or two different label keys (either would
# NIMBUS_CHECK-fail at runtime on whichever path runs second). Run from
# anywhere; takes the repo root as optional $1.
set -eu

root="${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}"

# Flatten each source file to one line so registrations split across
# lines by clang-format ("GetCounterVec(\"name\",\n  \"key\")") still
# match, then emit one "name signature" pair per registration:
#   scalar:  name Counter
#   labeled: name CounterVec:label_key
scan() {
    for dir in "$@"; do
        [ -d "$dir" ] || continue
        find "$dir" \( -name '*.cc' -o -name '*.h' \) -print
    done | while IFS= read -r f; do
        tr '\n' ' ' < "$f"
        printf '\n'
    done | {
        grep -oE 'Get(Counter|Gauge|Histogram)(Vec)?\( *"[^"]+"(, *"[^"]+")?' || true
    } | sed -E \
        -e 's/Get(Counter|Gauge|Histogram)Vec\( *"([^"]+)", *"([^"]+)"/\2 \1Vec:\3/' \
        -e 's/Get(Counter|Gauge|Histogram)\( *"([^"]+)".*/\2 \1/' |
      grep -vE 'Vec\( *"' | sort -u
}

pairs=$(scan "$root/src" "$root/bench" "$root/tests" "$root/examples")

status=0
dupes=$(printf '%s\n' "$pairs" | awk '{print $1}' | sort | uniq -d)
for name in $dupes; do
    echo "error: metric '$name' is registered with multiple kinds/label keys:" >&2
    printf '%s\n' "$pairs" | awk -v n="$name" '$1 == n {print "  " $2}' >&2
    status=1
done

# Metric names in src/ must be string literals: a name built at runtime
# (say, one per price point) mints a new series per distinct value,
# escapes the labeled families' cardinality cap, and puts a locked
# registry lookup on the hot path. The Registry's own declarations and
# definitions in common/telemetry.{h,cc} take the name as a parameter
# and are exempt.
dynamic=$(find "$root/src" \( -name '*.cc' -o -name '*.h' \) \
        ! -path "$root/src/common/telemetry.cc" \
        ! -path "$root/src/common/telemetry.h" -print |
    while IFS= read -r f; do
        tr '\n' ' ' < "$f" |
            grep -oE 'Get(Counter|Gauge|Histogram)(Vec)?\( *[^" ][^)]{0,40}' |
            sed "s|^|$f: |"
    done)
if [ -n "$dynamic" ]; then
    echo "error: metric name is not a string literal (use a literal, or a labeled family for per-value series):" >&2
    printf '%s\n' "$dynamic" | sed 's/^/  /' >&2
    status=1
fi

# Every production (src/) registration — scalar or labeled family —
# must appear in DESIGN.md's metrics table so operators can look up
# what a scrape exports. Tests and benches may register throwaway
# names; they are exempt.
src_names=$(scan "$root/src" | awk '{print $1}' | sort -u)
for name in $src_names; do
    if ! grep -q "\`$name\`" "$root/DESIGN.md"; then
        echo "error: metric '$name' is registered in src/ but missing from DESIGN.md's metrics table" >&2
        status=1
    fi
done

# The economic-audit surface is load-bearing for operators (alerts and
# the CI drill grep these families by name): require the auditor's and
# the metric-history ring's registrations to exist in src/ AND be
# documented, so a refactor cannot silently rename or drop them.
required_families="audit_violations_total audit_offering_violations_total \
audit_samples_total audit_commits_observed_total audit_ring_dropped_total \
audit_passes_total audit_lanes timeseries_samples_total \
timeseries_evictions_total timeseries_series"
for name in $required_families; do
    if ! printf '%s\n' "$src_names" | grep -qx "$name"; then
        echo "error: required audit/timeseries metric '$name' is not registered anywhere in src/" >&2
        status=1
    fi
    if ! grep -q "\`$name\`" "$root/DESIGN.md"; then
        echo "error: required audit/timeseries metric '$name' is missing from DESIGN.md's metrics table" >&2
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "check_metrics_names: FAILED (fix the kind clash / missing doc rows above)" >&2
else
    count=$(printf '%s\n' "$pairs" | grep -c . || true)
    echo "check_metrics_names: OK ($count distinct metric registrations)"
fi
exit "$status"
