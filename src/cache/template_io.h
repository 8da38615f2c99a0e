/**
 * @file
 * Versioned binary (de)serialization of launch templates for the
 * optional on-disk cache tier (TemplateCache::setDiskDir).
 *
 * The format is checked structurally (magic, bounds; every length and
 * count against the bytes left before allocating, so a forged file is
 * kCorrupted, not an allocation abort) and by an unkeyed, forgeable
 * SHA-256 trailer. End-to-end integrity comes from the launch
 * measurement itself — a template whose payload or page digests were
 * altered replays to a different measurement than the cold boot, so
 * the warm launch is rejected and the caller falls back to a cold
 * build. The cache therefore never has to trust the filesystem.
 */
#ifndef SEVF_CACHE_TEMPLATE_IO_H_
#define SEVF_CACHE_TEMPLATE_IO_H_

#include <memory>
#include <string>

#include "base/status.h"
#include "base/types.h"
#include "cache/template_cache.h"

namespace sevf::cache {

/** Encode @p tmpl into the versioned binary format. */
ByteVec serializeTemplate(const LaunchTemplate &tmpl);

/** Decode; fails with kCorrupted on any structural violation. */
Result<LaunchTemplate> deserializeTemplate(ByteSpan data);

/** Write @p tmpl to @p path (whole-file replace). */
Status saveTemplateFile(const std::string &path, const LaunchTemplate &tmpl);

/** Read and decode a template file; kNotFound when absent. */
Result<std::shared_ptr<const LaunchTemplate>>
loadTemplateFile(const std::string &path);

} // namespace sevf::cache

#endif // SEVF_CACHE_TEMPLATE_IO_H_
