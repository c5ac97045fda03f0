/**
 * @file
 * Golden field digests for the thermal kernels. Every field that the
 * SOR and multigrid steady solvers (cold and warm), the explicit
 * TransientStepper (split across a power change, and sampled from
 * ambient) and the VerticalImplicit stepper (split across a power
 * change) produce is hashed whole, bit for bit, over a spread of
 * geometries: planar and stacked stacks, odd and even grid sizes,
 * generated 1-4 core floorplans under the multicore spreader rule, and
 * a chip that fills the spreader so material touches every grid edge.
 * Host-time work on src/thermal must leave every digest unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "floorplan/floorplan.h"
#include "test_util.h"
#include "thermal/grid.h"
#include "thermal/hotspot.h"

namespace th {
namespace {

constexpr int kKernels = 7;
const char *const kKernelNames[kKernels] = {
    "cold", "warm", "stepper", "transient", "mg_cold", "mg_warm", "imex"};

/** One geometry and the digests of its seven kernel runs. */
struct GoldenRow
{
    bool stacked;
    int gridN;
    /** Generated floorplan's core count; 0 = the dual-core chip
     *  filling the whole spreader. */
    int cores;
    std::uint64_t digest[kKernels];
};

const GoldenRow kGolden[] = {
    {false, 5, 1,
     {0xdd2c96d72764ddb1ULL, 0xb0b76304cf61877eULL, 0x7e9cc6c934c4c9edULL,
      0x4f40b9b165f23c86ULL, 0xe467adc001e2e133ULL, 0xd7e33a440066a379ULL,
      0x0e3124d8b286a860ULL}},
    {false, 5, 2,
     {0x896c8816c41fac3cULL, 0xd6c05d84ce69c6beULL, 0xeecf380909c8a16fULL,
      0x9803f86533fe3f45ULL, 0x6415ab35db112a48ULL, 0x6be9d41339a9124dULL,
      0x270980c399d62895ULL}},
    {false, 5, 3,
     {0x1296fcbad6e912ceULL, 0xd32888c4f2bfb4eaULL, 0xe08906b3105b2ea5ULL,
      0xbf0f29afb26fa93aULL, 0x984f9efd3ffdae4aULL, 0x6de86350f6855229ULL,
      0x7e751b20059f1fb6ULL}},
    {false, 5, 4,
     {0x6c10c1a2edc19a76ULL, 0xded8e059b55c3009ULL, 0x19ca385a812e9e66ULL,
      0xbd51253c101287f7ULL, 0x98a9546b609893acULL, 0x6e62a94519096bd7ULL,
      0xba59171fd0e71e53ULL}},
    {false, 5, 0,
     {0xdd6a3a8f294d9528ULL, 0xa54ef4f814173fdaULL, 0xd433b4c2d63177e1ULL,
      0x9d8f4c0d6dc7bfd9ULL, 0x0ffb3f61397b0cc6ULL, 0x261bd5ce7696a114ULL,
      0x929d2f83c614be54ULL}},
    {false, 8, 1,
     {0x626f4348cc3cbe73ULL, 0x156bbf2b7433dc96ULL, 0x87133ecd8d23c6b8ULL,
      0x15114535ffa084f9ULL, 0x92316c8e31be3fd3ULL, 0x08d8d8ee9fe995bcULL,
      0x8dd0cbf07357a33bULL}},
    {false, 8, 2,
     {0xbca70f33cbec4c4fULL, 0x47c1ac365c9dbcb1ULL, 0x7b58bea65fc5a290ULL,
      0x795ab4b3dd26d421ULL, 0xad553c846bc41fb5ULL, 0x4df69a4990710c1aULL,
      0x6996b46f6041035fULL}},
    {false, 8, 3,
     {0x895197e02fbcf401ULL, 0xbe6b0b7bf5685039ULL, 0x5b0a34299c209540ULL,
      0xcb4e4aaeee4d6aafULL, 0x66c8377042bc74f7ULL, 0x980a0c6873e11e3aULL,
      0x5545bfe8dad48d34ULL}},
    {false, 8, 4,
     {0xd3aa286ff06e1987ULL, 0xb2526ec3760427d8ULL, 0xd9dfdf344ad0143bULL,
      0xe6831359e8676142ULL, 0xd4a96cb65ab98834ULL, 0x6838afd271febc15ULL,
      0xbd0318382d3dffe6ULL}},
    {false, 8, 0,
     {0xa803fa5c4e940472ULL, 0x03e44d978e42b851ULL, 0x5ad84a756b4bdac5ULL,
      0x4c3a7318683e02aaULL, 0xfb41d1a2c70861e3ULL, 0x082559dc6659ba19ULL,
      0xc649ea8b89cf51b7ULL}},
    {false, 16, 1,
     {0x59c4ba69812440b9ULL, 0xdfa7e4f016af8c9aULL, 0xc79da6ca3a6738fdULL,
      0x713ac6a4e325f7b5ULL, 0x505db9353bfe10a7ULL, 0x0b3efc7dbe277944ULL,
      0xc79a4034e1f70b11ULL}},
    {false, 16, 2,
     {0xf137a4fdcaefb6ccULL, 0xa69bc8bee8c023c1ULL, 0x580aa614313ee5fbULL,
      0x96279e75e37f0321ULL, 0x3aac465918dfac3cULL, 0x3c14cf72192c12e7ULL,
      0x86d9862995faf971ULL}},
    {false, 16, 3,
     {0xb85d4e955d88510eULL, 0xe8cbe4a9ed5b6510ULL, 0x293bcb431042c53aULL,
      0xfeb61fb18be13f15ULL, 0x0abc2b1edf0be47dULL, 0xf8ce4067832a2cafULL,
      0x04ad50ae999fe133ULL}},
    {false, 16, 4,
     {0x0f761179d8fcb4ccULL, 0xddc8c404243b2ed2ULL, 0x8b1510d22611f424ULL,
      0x52d6c4dd33a4ed6dULL, 0x99ab13dd76701c95ULL, 0x797d5b29e08d30c5ULL,
      0xab9656ef280ef9abULL}},
    {false, 16, 0,
     {0x39ec89f0b2c8f08eULL, 0x4990cf74ba9104f0ULL, 0x27250b0aa4ae9623ULL,
      0x3cdf0883c95b3afdULL, 0x4c2a475650070a0dULL, 0xd8021684cdd94894ULL,
      0x32d78cc03c0ca5ccULL}},
    {false, 33, 1,
     {0xfe6934cf1b65ea96ULL, 0x547972332a42eed4ULL, 0xd43363afcb69efd3ULL,
      0xcafeec4d9f3e26bbULL, 0x35dbb93e83fb74f5ULL, 0xedd91b5454b00368ULL,
      0x48fd53554cf37b96ULL}},
    {false, 33, 2,
     {0x207b3d2f2dc56ef4ULL, 0x9cb191deeda0a62dULL, 0x251b59b31a01a34dULL,
      0x93b71922de412808ULL, 0xa2edd5dafcee9a07ULL, 0x3a5fce838a54fbf5ULL,
      0xc64efb02b9e38d2cULL}},
    {false, 33, 3,
     {0x62f136e6d7aba4aaULL, 0xb79c2bfdabb496f6ULL, 0xff07ef522ae05312ULL,
      0x22b4402656bc4951ULL, 0xf2aad7c98c1e11a4ULL, 0x1f2f4339670fca07ULL,
      0x48cb3c8839c14921ULL}},
    {false, 33, 4,
     {0x4e4fcbf58b27a3d3ULL, 0xae641b9c0e2ae8d3ULL, 0x0422ba84aca93e63ULL,
      0x145e40340e863f7eULL, 0x437aded98a82a684ULL, 0x1b3b4c4a03f8b9bbULL,
      0xfa6b84dc92c8e1faULL}},
    {false, 33, 0,
     {0xdbfe4c4eb9c735c9ULL, 0x935863f10827b2a9ULL, 0x6ccfe0a36d637515ULL,
      0xf009f4783897f8d0ULL, 0xf656fa9f8a8ab18dULL, 0x1b8db022abeb7b25ULL,
      0x35820371e111413eULL}},
    {false, 48, 1,
     {0x92167b7af0972235ULL, 0x8802e857b9d7b14fULL, 0x2e577bfc4ee7f473ULL,
      0x54ef8559582e3324ULL, 0x7f5e17e90d37dba7ULL, 0xdf4ac85cd3adaeb8ULL,
      0x94f77618264d87a1ULL}},
    {false, 48, 2,
     {0xf66e8ef4825a651dULL, 0x2aead28cb49c9aa6ULL, 0xc3ef8cafc7ac5500ULL,
      0xa66bd3378e30a654ULL, 0x40b1174526d6e902ULL, 0xc0e817d122dd7ff5ULL,
      0x4f892d97787f82a0ULL}},
    {false, 48, 3,
     {0xed36f55aa48aaebfULL, 0xd5bfab574c48be8eULL, 0x3303ccb356722211ULL,
      0x1ad0b4f42672fa64ULL, 0xeedcdee5fe3fac8bULL, 0xae88ebe014495430ULL,
      0xb2c42fc0e88dffb1ULL}},
    {false, 48, 4,
     {0xdf083028c8d38e6dULL, 0x2d7a726e241cd07fULL, 0x1110132810ae8a30ULL,
      0x8316f1c305ab4ab6ULL, 0x574058dfd62e3efcULL, 0xdd59b9c3971c1ae5ULL,
      0xf75980b132c7e87cULL}},
    {false, 48, 0,
     {0x72d577da9146bb6cULL, 0x9789f30b2bd2f071ULL, 0xe8a7a6f154273111ULL,
      0xf56eb1b278bf9230ULL, 0xcd6e27d6ca028448ULL, 0x3f3bc89e9c7e246dULL,
      0xbbb96d79411181c7ULL}},
    {true, 5, 1,
     {0x588dab30f9b66b9cULL, 0xd84b7dfb43b93800ULL, 0x7f8321e4039f9beeULL,
      0xd9b7c1659e3c0465ULL, 0x44daa44adc8f18bbULL, 0x7213bc24d4bfbce7ULL,
      0x72108e973e183367ULL}},
    {true, 5, 2,
     {0x80c5369a12891203ULL, 0x1b9f6b5d6eb387e9ULL, 0x4ab8bba60e8361cfULL,
      0xd289f0f2c50690deULL, 0x8e506fb5ef6d77f6ULL, 0x9bff23eceee590c3ULL,
      0x1c4e5cf72676acc8ULL}},
    {true, 5, 3,
     {0x4e295193651cd5adULL, 0x2cb38f8b3c9ae4afULL, 0xb0959ef444a93bc6ULL,
      0xe8427f2e9955e8eeULL, 0x810e55e6e15bf061ULL, 0xd115c5de7c1dc21bULL,
      0xbddacaf39cfd63a3ULL}},
    {true, 5, 4,
     {0x29635be1677ccef9ULL, 0xbb32fdbb33072d2bULL, 0x489763ecff9310b7ULL,
      0x2037e125e4c64c69ULL, 0x8f1174e8e6627a6fULL, 0x3e7e6125f4679e75ULL,
      0xd77264375c6f3168ULL}},
    {true, 5, 0,
     {0x67d73b309dca82bcULL, 0x5e905c85ac627962ULL, 0xe2cf0a81c7c38563ULL,
      0x32aaf50b66f5506bULL, 0x51bd72d83b3e7af4ULL, 0xb43a23df1d7f4510ULL,
      0xa1d5d99d25ded602ULL}},
    {true, 8, 1,
     {0x9594789f30d98af1ULL, 0xacad19c581aef154ULL, 0x255a80398f83a10aULL,
      0xf560be956f3bbc96ULL, 0x2a56739cb220dd34ULL, 0xd2399b95ceff654fULL,
      0x9be745aec7448ed9ULL}},
    {true, 8, 2,
     {0x0888eae5945cc5acULL, 0x2ca3b03a1024adf8ULL, 0x7b9071dc1bb7f780ULL,
      0xe8db6da1d1ebc3e4ULL, 0x3b3b24d2fd9487fbULL, 0x86b7150f355234daULL,
      0x03bb0275a1169636ULL}},
    {true, 8, 3,
     {0xb427a30828974f15ULL, 0x14e709faba4e5d9aULL, 0xb5c98817c28d2838ULL,
      0x31868dcbabfe0b4aULL, 0xf7fa5799f7731172ULL, 0x5a0374a7ec3fefe1ULL,
      0x1ded2771182d1ed4ULL}},
    {true, 8, 4,
     {0x1c0747ba530b49e8ULL, 0x34779b7b6d8ddbd9ULL, 0x078eb4dd91652460ULL,
      0xd37a61ca24cfe95eULL, 0xc7439d95fc5f6af2ULL, 0x3af8a0e915f901f8ULL,
      0x2f6312ddc638a457ULL}},
    {true, 8, 0,
     {0xd2246eb1b84ccceaULL, 0x16612f72ce37cf7eULL, 0x1405b01a3f6e3409ULL,
      0x04b15e11c229e055ULL, 0xec32b02da694b6f9ULL, 0x184c7ade8d3168d7ULL,
      0xf917aeaa537231c6ULL}},
    {true, 16, 1,
     {0xaeed497b248d8351ULL, 0x0cd1309acd0854bbULL, 0xd1a991dc5b752934ULL,
      0xe416fc702d62a71fULL, 0xd9e7593c240443a5ULL, 0xc8fd08eaa71df017ULL,
      0x94f0792716b114c8ULL}},
    {true, 16, 2,
     {0xad689ce44ec675f2ULL, 0x92ea93b58082943fULL, 0x90c70d8c0f583b01ULL,
      0xeadb8d5e46f445f2ULL, 0x886187795b9255e7ULL, 0x4ee7b2ab7cef4f05ULL,
      0x02d1b34d1904c381ULL}},
    {true, 16, 3,
     {0xa4622291aab8f5baULL, 0xd4165cad3a6346d1ULL, 0x59b62121a6d49310ULL,
      0x0c0ed9a838430b9cULL, 0x02af8fdd1c0e1fa0ULL, 0xc9c73c9e4794e234ULL,
      0x907de63aa4208411ULL}},
    {true, 16, 4,
     {0xe53563b13ff688c1ULL, 0xff74bb69a5dfdf56ULL, 0xf197c7473636e5cbULL,
      0xac980e827f7fd549ULL, 0xc8a6906c4c4e013eULL, 0x331aa4cb2fab1578ULL,
      0x4f7665968d0f0d4aULL}},
    {true, 16, 0,
     {0x39870d769992a690ULL, 0x1292c257e7cbcb08ULL, 0xf6373069fb02ecdeULL,
      0xeb3df3b1aeb011a8ULL, 0xa546953eb7006ff3ULL, 0x1349e9a11fe1dd11ULL,
      0xae449d11f257e148ULL}},
    {true, 33, 1,
     {0x862f705322dad6dcULL, 0x6029d1b387dd0ae6ULL, 0x151c6c7d179d5322ULL,
      0x0c117462e5c32b4eULL, 0x562b215f45360e00ULL, 0x7d7d1ea7d490f2b5ULL,
      0x3add66fb2219a921ULL}},
    {true, 33, 2,
     {0x5299262a3ee94eceULL, 0x2a25a2130c48bd2bULL, 0x0765da05ec1a15e3ULL,
      0x86595fa6c1f60ec5ULL, 0x100d85d929b0ebebULL, 0x06f1fe4bf24da834ULL,
      0xc0a347cfb6e0ee25ULL}},
    {true, 33, 3,
     {0xb10ea28b70d911b5ULL, 0xb6e68bf528fa85aaULL, 0xb4f52ff35d279283ULL,
      0xadbc7b849e8dad29ULL, 0x30e833f6028d7987ULL, 0x117329e0ccea2628ULL,
      0x5a4c563a0d29ad47ULL}},
    {true, 33, 4,
     {0x3171ec2e6a751318ULL, 0xde943dc7731bf13eULL, 0x84adcbb2a826a327ULL,
      0x215adc9bba7cc395ULL, 0xd2d3ce84c23850daULL, 0x97d4dcd88676ad54ULL,
      0x3ed48a73948832afULL}},
    {true, 33, 0,
     {0xac4f2093c292522eULL, 0x8be5000389064840ULL, 0x98771df4ebd76e2bULL,
      0x2dddf8eaf249979aULL, 0xa1161deefadf4263ULL, 0xca340c332f3ce2cdULL,
      0xd933b8cd4732b65dULL}},
    {true, 48, 1,
     {0x449cc157dfb848a4ULL, 0xf47c3b63a594bea7ULL, 0x8c9074e360985460ULL,
      0xb4f069fa9442d419ULL, 0xea349a76bc71b873ULL, 0xcc7a5be36e5b8846ULL,
      0xe33365e7fb38affaULL}},
    {true, 48, 2,
     {0x2471f9b1984c4605ULL, 0x002764b6c7243a34ULL, 0x43f0d6a25f0b3fafULL,
      0xefe4b6bea0a303d4ULL, 0x70c32f515ebf9fcfULL, 0x92a2e980b6c0df41ULL,
      0x2e60f5c5dd80ceb2ULL}},
    {true, 48, 3,
     {0x74ea949fea70c57aULL, 0x81036de6005e6c7fULL, 0xb5041d90a0af8d3dULL,
      0xeca891dd34ebe305ULL, 0x080dd38c9a8e2adbULL, 0x7358fd4f153ba196ULL,
      0xae4e4666d541fdcbULL}},
    {true, 48, 4,
     {0x2dbed5e5701998e6ULL, 0xf44fd95868ed36e6ULL, 0x14c09ae67b594583ULL,
      0xb7602bdbb5fcbd63ULL, 0x37e87516bbb359d1ULL, 0x360f8d487b8efd77ULL,
      0x21daa2db23efba45ULL}},
    {true, 48, 0,
     {0xfc320c5d3bf82dccULL, 0x87947f98b8c4fb81ULL, 0xcf9c68ab25a78fd7ULL,
      0x57bc938b070918a9ULL, 0x2567d02cf3a57a85ULL, 0xfb374e59ba41e82cULL,
      0x8c345102c9801f20ULL}},
};

/** FNV-1a over the little-endian bytes of the values added to it. */
class Digest
{
  public:
    void add(double v)
    {
        std::uint64_t u;
        std::memcpy(&u, &v, sizeof u);
        add(u);
    }
    void add(std::uint64_t u)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
    }
    void add(const ThermalField &f)
    {
        const size_t cells = static_cast<size_t>(f.layers()) *
            static_cast<size_t>(f.gridN()) * static_cast<size_t>(f.gridN());
        for (size_t c = 0; c < cells; ++c)
            add(f.t(c));
    }
    void add(const ThermalGrid::SolveStats &s)
    {
        add(static_cast<std::uint64_t>(s.iterations));
        add(s.residualK);
    }
    std::uint64_t value() const { return test::fnv1a(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Deterministic block powers; @p map selects one of several maps. */
void
deposit(ThermalGrid &grid, const Floorplan &fp, int dies, int map)
{
    grid.clearPower();
    for (int d = 0; d < dies; ++d) {
        for (size_t b = 0; b < fp.blocks.size(); ++b) {
            const BlockRect &r = fp.blocks[b];
            const auto k = (b * 5 + static_cast<size_t>(d) * 3 +
                            static_cast<size_t>(map) * 7) % 13;
            grid.addPower(d, r.x, r.y, r.w, r.h,
                          0.2 + 0.05 * static_cast<double>(k));
        }
    }
}

/** Run the seven kernels on one geometry and hash each result. */
std::vector<std::uint64_t>
kernelDigests(const GoldenRow &row)
{
    const Floorplan fp = FloorplanBuilder::generate(
        row.cores == 0 ? 2 : row.cores, 2, row.stacked);
    ThermalParams p;
    p.gridN = row.gridN;
    p.maxResidualK = 1e-3;
    if (row.cores == 0) {
        // Material reaches every grid edge, so each kernel reads the
        // cells beyond the boundary it must treat as absent.
        EXPECT_EQ(fp.chipW, fp.chipH);
        p.spreaderMm = fp.chipW;
    } else {
        p.spreaderMm = std::max(p.spreaderMm,
                                std::max(fp.chipW, fp.chipH) * 5.0 / 3.0);
    }
    const std::vector<ThermalLayer> stack =
        row.stacked ? HotspotModel::stackedStack()
                    : HotspotModel::planarStack();
    const int dies = row.stacked ? kNumDies : 1;
    const int layers = static_cast<int>(stack.size());
    std::vector<std::uint64_t> out;

    ThermalGrid grid(p, stack, fp.chipW, fp.chipH);
    deposit(grid, fp, dies, 0);
    ThermalGrid::SolveStats stats;
    const ThermalField cold = grid.solve(&stats);
    Digest cold_d;
    cold_d.add(cold);
    cold_d.add(stats);
    out.push_back(cold_d.value());

    deposit(grid, fp, dies, 1);
    const ThermalField warm = grid.solve(&stats, &cold);
    Digest warm_d;
    warm_d.add(warm);
    warm_d.add(stats);
    out.push_back(warm_d.value());

    // Split advances with a power change between them, from the cold
    // steady field; durations land between step boundaries.
    const double dt = grid.transientDt(1.0);
    TransientStepper stepper(grid, cold, 1.0);
    stepper.advance(61.5 * dt);
    stepper.advance(38.7 * dt);
    deposit(grid, fp, dies, 2);
    stepper.advance(100.25 * dt);
    Digest step_d;
    step_d.add(stepper.field());
    step_d.add(static_cast<std::uint64_t>(stepper.steps()));
    out.push_back(step_d.value());

    // From ambient: 150 steps sampled every 21, so the last sample
    // closes a short segment.
    TransientStepper from_ambient(grid, ThermalField(p.gridN, layers), dt);
    const std::vector<int> die_layers = grid.dieLayers();
    Digest tr_d;
    for (const std::int64_t to : {21, 42, 63, 84, 105, 126, 147, 150}) {
        from_ambient.advance(
            static_cast<double>(to - from_ambient.steps()) * dt);
        tr_d.add(from_ambient.timeS());
        tr_d.add(from_ambient.field().peak(die_layers));
    }
    tr_d.add(from_ambient.field());
    out.push_back(tr_d.value());

    // The same cold and warm solves under multigrid; odd grids run its
    // single-level line-relaxation fallback.
    ThermalParams pmg = p;
    pmg.solver = SolverKind::Multigrid;
    ThermalGrid mg(pmg, stack, fp.chipW, fp.chipH);
    deposit(mg, fp, dies, 0);
    const ThermalField mg_cold = mg.solve(&stats);
    Digest mg_cold_d;
    mg_cold_d.add(mg_cold);
    mg_cold_d.add(stats);
    out.push_back(mg_cold_d.value());

    deposit(mg, fp, dies, 1);
    Digest mg_warm_d;
    mg_warm_d.add(mg.solve(&stats, &mg_cold));
    mg_warm_d.add(stats);
    out.push_back(mg_warm_d.value());

    // The VerticalImplicit stepper split across the same power change,
    // from the multigrid cold field at its own (lateral) step.
    TransientStepper imex(mg, mg_cold, 1.0,
                          TransientScheme::VerticalImplicit);
    const double imex_dt = imex.dtS();
    imex.advance(61.5 * imex_dt);
    imex.advance(38.7 * imex_dt);
    deposit(mg, fp, dies, 2);
    imex.advance(100.25 * imex_dt);
    Digest imex_d;
    imex_d.add(imex.field());
    imex_d.add(static_cast<std::uint64_t>(imex.steps()));
    out.push_back(imex_d.value());
    return out;
}

std::string
rowText(const GoldenRow &row, const std::vector<std::uint64_t> &digests)
{
    std::ostringstream os;
    os << "{" << (row.stacked ? "true" : "false") << ", " << row.gridN
       << ", " << row.cores << ", {" << std::hex << std::setfill('0');
    for (size_t k = 0; k < digests.size(); ++k)
        os << (k > 0 ? ", " : "") << "0x" << std::setw(16) << digests[k]
           << "ULL";
    os << "}},";
    return os.str();
}

struct Shape
{
    bool stacked;
    int gridN;
};

/** Also names each instance in ctest, e.g. .../stacked_n16. */
void
PrintTo(const Shape &s, std::ostream *os)
{
    *os << (s.stacked ? "stacked" : "planar") << "_n" << s.gridN;
}

class ThermalGolden : public ::testing::TestWithParam<Shape>
{
};

TEST_P(ThermalGolden, KernelFieldsAreBitIdentical)
{
    const Shape shape = GetParam();
    int rows = 0;
    for (const GoldenRow &row : kGolden) {
        if (row.stacked != shape.stacked || row.gridN != shape.gridN)
            continue;
        ++rows;
        const std::vector<std::uint64_t> now = kernelDigests(row);
        for (int k = 0; k < kKernels; ++k)
            EXPECT_EQ(now[static_cast<size_t>(k)], row.digest[k])
                << kKernelNames[k] << " field of "
                << (row.stacked ? "stacked" : "planar") << " gridN "
                << row.gridN << " cores " << row.cores
                << " drifted — the thermal kernels changed an "
                << "output bit. Row now: " << rowText(row, now);
    }
    EXPECT_EQ(rows, 5) << "one row per floorplan";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ThermalGolden,
    ::testing::Values(Shape{false, 5}, Shape{false, 8}, Shape{false, 16},
                      Shape{false, 33}, Shape{false, 48},
                      Shape{true, 5}, Shape{true, 8}, Shape{true, 16},
                      Shape{true, 33}, Shape{true, 48}));

} // namespace
} // namespace th
