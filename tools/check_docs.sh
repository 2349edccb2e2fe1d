#!/usr/bin/env sh
# Docs tier of CI (tools/ci.sh tier 0): keeps the documentation from
# rotting without needing a build.
#
#   1. Markdown link check — every relative link in the top-level and
#      docs/ markdown files must resolve to an existing file (anchors and
#      external URLs are skipped).
#   2. CLI flag coverage, both ways — every flag parsed from the command
#      line in tools/, bench/ and examples/ (util::CliArgs get_*/has calls)
#      must appear as `--flag` in docs/cli.md, the consolidated CLI
#      reference, and every `--flag` docs/cli.md documents must be parsed
#      by one of those sources (google-benchmark's `--benchmark_*` flags
#      aside), so a removed flag cannot linger in the reference.
#   3. --help coverage, for each of gpclust, gpclust-build-index and
#      gpclust-query — every flag the tool prints in its --help reference
#      must also appear in docs/cli.md, and every flag the tool's own
#      source reads (its get_*/has keys) must appear in its --help text.
#      Uses the built binaries' live output when a build directory exists;
#      falls back to scraping the flag tokens from the sources so the
#      tier still runs build-free.
#
# Runnable locally from anywhere: sh tools/check_docs.sh
set -eu

cd "$(dirname "$0")/.."

fail=0

echo "-- markdown link check"
for md in *.md docs/*.md; do
  [ -f "$md" ] || continue
  dir=$(dirname "$md")
  # Inline links: the (target) half of ](target), minus any #anchor.
  links=$(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//') || true
  for link in $links; do
    case "$link" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    target=${link%%#*}
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "broken link in $md: $link"
      fail=1
    fi
  done
done

echo "-- CLI flag coverage vs docs/cli.md"
# Prints the flag names the given sources read. Newlines folded first: a
# call may wrap between "get_int(" and its name.
read_flags() {
  cat "$@" | tr -s '\n ' '  ' |
    grep -o 'get_\(int\|string\|bool\|double\)( *"[a-z0-9-]*"\|\.has( *"[a-z0-9-]*"' |
    sed 's/.*( *"\([a-z0-9-]*\)".*/\1/' | sort -u
}
flags=$(read_flags tools/*.cpp bench/*.cpp examples/*.cpp)
for f in $flags; do
  if ! grep -q -- "--$f" docs/cli.md; then
    echo "flag --$f is parsed in the sources but missing from docs/cli.md"
    fail=1
  fi
done
documented=$(grep -o -- '--[a-z][a-z0-9-]*[_*]\{0,1\}' docs/cli.md |
  grep -v '[_*]$' | sed 's/^--//' | sort -u)
for f in $documented; do
  if ! printf '%s\n' "$flags" | grep -qx -- "$f"; then
    echo "docs/cli.md documents --$f, but no source in tools/, bench/ or examples/ parses it"
    fail=1
  fi
done

echo "-- --help flag coverage vs docs/cli.md and each tool's source"
for tool in gpclust gpclust-build-index gpclust-query; do
  case "$tool" in
    gpclust) src=tools/gpclust_cli.cpp ;;
    gpclust-build-index) src=tools/gpclust_build_index.cpp ;;
    gpclust-query) src=tools/gpclust_query.cpp ;;
  esac
  bin=""
  for d in build build-ci; do
    if [ -x "$d/tools/$tool" ]; then bin="$d/tools/$tool"; break; fi
  done
  if [ -n "$bin" ]; then
    help_text=$("$bin" --help) || {
      echo "$bin --help exited non-zero (stale build?)"
      fail=1
    }
  else
    help_text=$(cat "$src")
  fi
  help_flags=$(printf '%s\n' "$help_text" |
    grep -o '[-][-][a-z][a-z0-9-]*' | sort -u) || true
  for f in $help_flags; do
    if ! grep -q -- "$f" docs/cli.md; then
      echo "$tool flag $f is in its --help reference but missing from docs/cli.md"
      fail=1
    fi
  done
  for f in $(read_flags "$src"); do
    if ! printf '%s\n' "$help_flags" | grep -qx -- "--$f"; then
      echo "$tool reads --$f ($src) but its --help reference omits it"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check passed"
