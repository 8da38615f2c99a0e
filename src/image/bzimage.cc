#include "image/bzimage.h"

#include "base/bytes.h"
#include "base/rng.h"
#include "base/trust_zones.h"

namespace sevf::image {

namespace {

// Setup-header field offsets (Documentation/arch/x86/boot.rst).
constexpr std::size_t kOffSetupSects = 0x1f1;
constexpr std::size_t kOffBootFlag = 0x1fe;
constexpr std::size_t kOffHdrS = 0x202;
constexpr std::size_t kOffVersion = 0x206;
constexpr std::size_t kOffLoadflags = 0x211;
constexpr std::size_t kOffCode32Start = 0x214;
constexpr std::size_t kOffPayloadOffset = 0x248;
constexpr std::size_t kOffPayloadLength = 0x24c;
constexpr std::size_t kOffPrefAddress = 0x258;
constexpr std::size_t kOffInitSize = 0x260;

constexpr u8 kSetupSects = 3;      // 4 sectors of real-mode setup total
constexpr u8 kLoadedHigh = 1 << 0; // loadflags: PM image at 1 MiB

constexpr u64 kCode32Start = 0x100000;

} // namespace

ByteVec
buildBzImage(ByteSpan vmlinux, const BzImageBuildConfig &config)
{
    const compress::Codec &codec = compress::codecFor(config.codec);
    ByteVec payload = codec.compress(vmlinux);

    const u64 setup_size = (kSetupSects + 1) * kSectorSize;
    const u64 payload_offset = alignUp(config.loader_stub_size, 16);
    const u64 pm_size = payload_offset + payload.size();

    ByteVec file(setup_size + pm_size, 0);

    // Deterministic bytes standing in for the real-mode setup code and
    // the decompressor stub (arch/x86/boot/compressed/*).
    Rng stub_rng(config.stub_seed);
    stub_rng.fill(MutByteSpan(file.data(), kOffSetupSects));
    stub_rng.fill(
        MutByteSpan(file.data() + setup_size, payload_offset));

    // Setup header fields.
    file[kOffSetupSects] = kSetupSects;
    storeLe<u16>(file.data() + kOffBootFlag, kBootFlagMagic);
    storeLe<u32>(file.data() + kOffHdrS, kHdrSMagic);
    storeLe<u16>(file.data() + kOffVersion, kBootProtocolVersion);
    file[kOffLoadflags] = kLoadedHigh;
    storeLe<u32>(file.data() + kOffCode32Start,
                 static_cast<u32>(kCode32Start));
    storeLe<u32>(file.data() + kOffPayloadOffset,
                 static_cast<u32>(payload_offset));
    storeLe<u32>(file.data() + kOffPayloadLength,
                 static_cast<u32>(payload.size()));
    storeLe<u64>(file.data() + kOffPrefAddress, kCode32Start);
    // init_size: memory the kernel needs to decompress and run; derived
    // from the frame's decompressed size plus slack like the real build.
    u64 init_size = alignUp(vmlinux.size() + vmlinux.size() / 8 + kMiB,
                            kPageSize);
    storeLe<u32>(file.data() + kOffInitSize, static_cast<u32>(init_size));

    // Payload.
    std::copy(payload.begin(), payload.end(),
              file.begin() + setup_size + payload_offset);
    return file;
}

Result<BzImageInfo>
parseBzImage(ByteSpan file) SEVF_UNTRUSTED_INPUT
{
    if (file.size() < 0x268) {
        return errCorrupted("bzImage: file too small for setup header");
    }
    if (loadLe<u16>(file.data() + kOffBootFlag) != kBootFlagMagic) {
        return errCorrupted("bzImage: missing 0xAA55 boot flag");
    }
    if (loadLe<u32>(file.data() + kOffHdrS) != kHdrSMagic) {
        return errCorrupted("bzImage: missing HdrS magic");
    }

    BzImageInfo info;
    info.setup_sects = file[kOffSetupSects];
    if (info.setup_sects == 0) {
        info.setup_sects = 4; // boot-protocol backward-compat default
    }
    info.version = loadLe<u16>(file.data() + kOffVersion);
    if (info.version < 0x0208) {
        return errUnsupported("bzImage: protocol < 2.08 has no payload_offset");
    }
    info.pm_offset = (static_cast<u64>(info.setup_sects) + 1) * kSectorSize;
    info.payload_offset = loadLe<u32>(file.data() + kOffPayloadOffset);
    info.payload_length = loadLe<u32>(file.data() + kOffPayloadLength);
    info.init_size = loadLe<u32>(file.data() + kOffInitSize);

    u64 payload_file_off = info.pm_offset + info.payload_offset;
    if (payload_file_off + info.payload_length > file.size()) {
        return errCorrupted("bzImage: payload extends past end of file");
    }

    Result<compress::CodecKind> kind = compress::Codec::streamKind(
        file.subspan(payload_file_off, info.payload_length));
    if (!kind.isOk()) {
        return errCorrupted("bzImage: unrecognized payload compression");
    }
    info.codec = *kind;
    return info;
}

Result<ByteSpan>
bzImagePayload(ByteSpan file) SEVF_UNTRUSTED_INPUT
{
    SEVF_ASSIGN_OR_RETURN(BzImageInfo info, parseBzImage(file));
    // parseBzImage checked this, but re-establish the bound locally so
    // the subspan below never depends on a remote invariant.
    if (info.pm_offset + info.payload_offset + info.payload_length >
        file.size()) {
        return errCorrupted("bzImage: payload extends past end of file");
    }
    return file.subspan(info.pm_offset + info.payload_offset,
                        info.payload_length);
}

} // namespace sevf::image
