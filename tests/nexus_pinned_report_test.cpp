// Pinned simulated reports for the three Nexus engines.
//
// nexus++, classic-nexus and nexus-banked all run nexus::NexusSystem. Each
// line of kPinnedRows is RunReport::csv_row() of one point of the grid
// below (engine configuration x workload x match mode), prefixed with the
// point's key. The rows were recorded from the separate monolithic and
// banked system models that preceded the shared one, so they carry the
// reference numbers the monolithic model used to provide for the banks=1
// parity tests: any change that moves a simulated number of these engines
// (a block's charged cycles, a table statistic, an event count) fails here
// and has to be made on purpose.
//
// To re-record after a deliberate model change, run the test with
// NEXUSPP_PIN_PRINT=1: it prints the current rows in kPinnedRows' layout.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "workloads/library.hpp"

namespace nexuspp {
namespace {

// key = "<engine case>|<workload spec>|<match mode>", then the CSV row.
constexpr const char* kPinnedRows = R"(
nexus++|gaussian:n=24|base-addr,nexus++,8,15536.500,299,299,0,0.0186,2311.500,0.000,63.329,64.000,67.500,70.010,598,0.000,0,2,3,1,0,9,0,0,1.000,6286,,,,,,,,,,,,,,,,,,,
nexus++|gaussian:n=24|range,nexus++,8,15534.500,299,299,0,0.0186,2311.500,0.000,65.109,66.000,69.500,76.010,598,0.000,0,2,4,0,0,9,0,0,1.000,6286,,,,,,,,,,,,,,,,,,,
nexus++|halo-stencil|base-addr,nexus++,8,1870290.203,512,512,0,0.4001,5985928.388,0.000,907520.214,893932.981,1651854.873,1772786.516,1024,0.000,1,511,190,1,63,441,500,11,1.000,10964,,,,,,,,,,,,,,,,,,,
nexus++|halo-stencil|range,nexus++,8,1873450.360,512,512,0,0.3994,5985928.388,0.000,910150.861,896373.016,1643653.033,1776289.362,1024,0.000,1,511,1954,0,498,3995,3995,1769,10.397,10532,,,,,,,,,,,,,,,,,,,
nexus++|mixed-tiles|base-addr,nexus++,8,1009152.363,640,640,0,0.9185,7415315.944,0.000,496268.265,499622.036,924576.723,960489.826,1280,0.000,390,627,128,1,0,128,8,88,1.000,12258,,,,,,,,,,,,,,,,,,,
nexus++|mixed-tiles|range,nexus++,8,1004762.766,640,640,0,0.9225,7415315.944,0.000,493880.012,499630.731,929057.189,964741.424,1280,0.000,107,630,699,0,113,1191,768,171,8.104,11776,,,,,,,,,,,,,,,,,,,
nexus++|tiled-cholesky:tiles=6|base-addr,nexus++,8,2551871.334,56,56,0,0.4623,9437184.002,0.000,1076552.298,943653.667,2253639.167,2521484.667,112,0.000,4,56,21,1,0,70,0,35,1.000,1132,,,,,,,,,,,,,,,,,,,
nexus++|tiled-cholesky:tiles=6|range,nexus++,8,2551811.334,56,56,0,0.4623,9437184.002,0.000,1076507.334,943561.667,2253584.167,2521423.767,112,0.000,4,56,126,0,0,140,0,70,3.556,1093,,,,,,,,,,,,,,,,,,,
nexus++|pattern:kind=fft|base-addr,nexus++,8,80908.000,128,128,0,0.9888,640000.000,0.000,39559.062,39357.000,73811.600,74021.640,240,0.000,2,120,64,1,32,224,8,88,1.000,2535,,,,,,,,,,,,,,,,,,,
nexus++|pattern:kind=fft|range,nexus++,8,80972.000,128,128,0,0.9880,640000.000,0.000,39691.531,39524.000,73884.400,74088.880,240,0.000,2,120,320,0,11,463,384,163,5.658,2404,,,,,,,,,,,,,,,,,,,
nexus++|random-dag:seed=1|base-addr,nexus++,8,2636683.034,1000,1000,0,0.5665,11948530.229,0.000,1250301.763,1215009.008,2446493.409,2525855.302,2000,0.000,8,976,364,1,300,1553,476,393,1.000,20262,,,,,,,,,,,,,,,,,,,
nexus++|random-dag:seed=1|range,nexus++,8,2667591.104,1000,1000,0,0.5599,11948530.229,0.000,1269486.324,1226619.283,2459684.563,2558068.065,2000,0.000,7,975,3837,0,2216,10639,10211,5492,18.393,19302,,,,,,,,,,,,,,,,,,,
nexus++|random-dag:seed=2|base-addr,nexus++,8,2458950.323,1000,1000,0,0.6002,11807666.110,0.000,1124693.992,1127471.079,2247341.888,2362147.127,2000,0.000,14,972,354,1,291,1503,557,287,1.000,20119,,,,,,,,,,,,,,,,,,,
nexus++|random-dag:seed=2|range,nexus++,8,2506017.425,1000,1000,0,0.5890,11807666.110,0.000,1161778.124,1176721.650,2277791.084,2399352.502,2000,0.000,14,973,3633,0,2023,9498,9867,5211,17.583,19218,,,,,,,,,,,,,,,,,,,
classic-nexus|gaussian:n=24|base-addr,classic-nexus,8,15536.500,299,299,0,0.0186,2311.500,0.000,63.329,64.000,67.500,70.010,598,0.000,0,2,3,1,0,9,0,0,1.000,6286,,,,,,,,,,,,,,,,,,,
classic-nexus|gaussian:n=24|range,classic-nexus,8,15534.500,299,299,0,0.0186,2311.500,0.000,65.109,66.000,69.500,76.010,598,0.000,0,2,4,0,0,9,0,0,1.000,6286,,,,,,,,,,,,,,,,,,,
classic-nexus|halo-stencil|base-addr,classic-nexus,8,1509344.207,512,258,1,0.2489,3005656.292,0.000,701486.296,688742.299,1299490.879,1442248.249,516,0.000,1,511,127,1,0,192,252,5,1.000,6654,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 258
classic-nexus|halo-stencil|range,classic-nexus,8,1356407.060,512,193,1,0.2013,2184172.026,0.000,674218.563,661505.034,1263519.909,1326368.266,386,0.000,1,511,572,0,0,576,570,194,4.317,5369,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 193
classic-nexus|mixed-tiles|base-addr,classic-nexus,8,1565388.512,640,640,0,0.5921,7415315.944,0.000,776588.328,776882.421,1455815.521,1515259.749,1280,0.000,400,629,128,1,0,128,5,91,1.000,12829,,,,,,,,,,,,,,,,,,,
classic-nexus|mixed-tiles|range,classic-nexus,8,426251.827,640,164,1,0.5435,1853493.000,0.000,205051.848,207246.688,378841.260,405440.129,328,0.000,119,631,164,0,0,134,4,1,3.070,5211,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 164
classic-nexus|tiled-cholesky:tiles=6|base-addr,classic-nexus,8,2180411.334,56,56,0,0.5410,9437184.002,0.000,924478.953,839234.001,1882179.167,2150024.667,112,0.000,7,56,21,1,0,70,0,35,1.000,1178,,,,,,,,,,,,,,,,,,,
classic-nexus|tiled-cholesky:tiles=6|range,classic-nexus,8,2180375.334,56,56,0,0.5410,9437184.002,0.000,924451.631,839207.001,1882148.167,2149987.767,112,0.000,7,56,126,0,0,140,0,70,3.488,1138,,,,,,,,,,,,,,,,,,,
classic-nexus|pattern:kind=fft|base-addr,classic-nexus,8,66792.000,128,104,1,0.9732,520000.000,0.000,33088.385,33117.000,61040.800,61126.380,192,0.000,8,120,32,1,0,178,8,64,1.000,2337,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 104
classic-nexus|pattern:kind=fft|range,classic-nexus,8,72632.000,128,112,1,0.9638,560000.000,0.000,35822.000,35924.000,66184.000,66428.080,208,0.000,8,120,290,0,0,369,288,120,5.075,2402,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 112
classic-nexus|random-dag:seed=1|base-addr,classic-nexus,8,380887.130,1000,118,1,0.4574,1393611.739,0.000,176023.796,183249.285,336513.871,370520.477,236,0.000,13,983,62,1,0,105,49,31,1.000,6066,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 118
classic-nexus|random-dag:seed=1|range,classic-nexus,8,381113.130,1000,121,1,0.4660,1420914.299,0.000,180131.314,183723.435,355986.230,370412.722,242,0.000,13,983,307,0,0,166,158,96,3.024,6026,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 121
classic-nexus|random-dag:seed=2|base-addr,classic-nexus,8,285732.340,1000,105,1,0.5351,1223167.793,0.000,129721.892,125673.378,248921.319,276151.951,210,0.000,22,980,64,1,0,83,34,20,1.000,5854,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 105
classic-nexus|random-dag:seed=2|range,classic-nexus,8,368223.095,1000,135,1,0.5443,1603396.062,0.000,169199.811,166510.166,333787.040,349977.272,270,0.000,23,980,329,0,0,183,157,66,3.280,6270,,,,,,,,,,,,,,,,,,,Check Deps: kick-off list overflow without dummy entries (classic Nexus limit) while queueing task 135
nexus-banked:banks=1|gaussian:n=24|base-addr,nexus-banked,8,15536.500,299,299,0,0.0186,2311.500,0.000,63.329,64.000,67.500,70.010,598,0.000,0,2,3,1,0,9,0,0,1.000,6286,1,3422.000,1.000,1.000,3,3,,,,,,,,,,,,,
nexus-banked:banks=1|gaussian:n=24|range,nexus-banked,8,15534.500,299,299,0,0.0186,2311.500,0.000,65.109,66.000,69.500,76.010,598,0.000,0,2,4,0,0,9,0,0,1.000,6286,1,3908.000,1.000,1.000,4,4,,,,,,,,,,,,,
nexus-banked:banks=1|halo-stencil|base-addr,nexus-banked,8,1870290.203,512,512,0,0.4001,5985928.388,0.000,907520.214,893932.981,1651854.873,1772786.516,1024,0.000,1,511,190,1,63,441,500,11,1.000,10964,1,26862.000,1.000,1.000,190,190,,,,,,,,,,,,,
nexus-banked:banks=1|halo-stencil|range,nexus-banked,8,1873450.360,512,512,0,0.3994,5985928.388,0.000,910150.861,896373.016,1643653.033,1776289.362,1024,0.000,1,511,1954,0,498,3995,3995,1769,10.397,10532,1,166320.000,1.000,1.000,1954,1954,,,,,,,,,,,,,
nexus-banked:banks=1|mixed-tiles|base-addr,nexus-banked,8,1009152.363,640,640,0,0.9185,7415315.944,0.000,496268.265,499622.036,924576.723,960489.826,1280,0.000,390,627,128,1,0,128,8,88,1.000,12258,1,0.000,1.000,1.000,128,128,,,,,,,,,,,,,
nexus-banked:banks=1|mixed-tiles|range,nexus-banked,8,1004762.766,640,640,0,0.9225,7415315.944,0.000,493880.012,499630.731,929057.189,964741.424,1280,0.000,107,630,699,0,113,1191,768,171,8.104,11776,1,0.000,1.000,1.000,699,699,,,,,,,,,,,,,
nexus-banked:banks=1|tiled-cholesky:tiles=6|base-addr,nexus-banked,8,2551871.334,56,56,0,0.4623,9437184.002,0.000,1076552.298,943653.667,2253639.167,2521484.667,112,0.000,4,56,21,1,0,70,0,35,1.000,1132,1,1494.000,1.000,1.000,21,21,,,,,,,,,,,,,
nexus-banked:banks=1|tiled-cholesky:tiles=6|range,nexus-banked,8,2551811.334,56,56,0,0.4623,9437184.002,0.000,1076507.334,943561.667,2253584.167,2521423.767,112,0.000,4,56,126,0,0,140,0,70,3.556,1093,1,3804.000,1.000,1.000,126,126,,,,,,,,,,,,,
nexus-banked:banks=1|pattern:kind=fft|base-addr,nexus-banked,8,80908.000,128,128,0,0.9888,640000.000,0.000,39559.062,39357.000,73811.600,74021.640,240,0.000,2,120,64,1,32,224,8,88,1.000,2535,1,7296.000,1.000,1.000,64,64,,,,,,,,,,,,,
nexus-banked:banks=1|pattern:kind=fft|range,nexus-banked,8,80972.000,128,128,0,0.9880,640000.000,0.000,39691.531,39524.000,73884.400,74088.880,240,0.000,2,120,320,0,11,463,384,163,5.658,2404,1,21420.000,1.000,1.000,320,320,,,,,,,,,,,,,
nexus-banked:banks=1|random-dag:seed=1|base-addr,nexus-banked,8,2636683.034,1000,1000,0,0.5665,11948530.229,0.000,1250301.763,1215009.008,2446493.409,2525855.302,2000,0.000,8,976,364,1,300,1553,476,393,1.000,20262,1,78704.000,1.000,1.000,364,364,,,,,,,,,,,,,
nexus-banked:banks=1|random-dag:seed=1|range,nexus-banked,8,2667591.104,1000,1000,0,0.5599,11948530.229,0.000,1269486.324,1226619.283,2459684.563,2558068.065,2000,0.000,7,975,3837,0,2216,10639,10211,5492,18.393,19302,1,671684.000,1.000,1.000,3837,3837,,,,,,,,,,,,,
nexus-banked:banks=1|random-dag:seed=2|base-addr,nexus-banked,8,2458950.323,1000,1000,0,0.6002,11807666.110,0.000,1124693.992,1127471.079,2247341.888,2362147.127,2000,0.000,14,972,354,1,291,1503,557,287,1.000,20119,1,75898.000,1.000,1.000,354,354,,,,,,,,,,,,,
nexus-banked:banks=1|random-dag:seed=2|range,nexus-banked,8,2506017.425,1000,1000,0,0.5890,11807666.110,0.000,1161778.124,1176721.650,2277791.084,2399352.502,2000,0.000,14,973,3633,0,2023,9498,9867,5211,17.583,19218,1,625552.000,1.000,1.000,3633,3633,,,,,,,,,,,,,
nexus-banked:banks=4|gaussian:n=24|base-addr,nexus-banked,8,15526.500,299,299,0,0.0186,2311.500,0.000,59.370,59.000,67.000,67.500,598,0.000,0,2,,1,0,9,0,0,1.000,6286,4,870.000,1.344,1.091,3,3;3;2;3,,,,,,,,,,,,,
nexus-banked:banks=4|gaussian:n=24|range,nexus-banked,8,15522.500,299,299,0,0.0186,2311.500,0.000,60.774,61.000,69.000,71.010,598,0.000,0,2,,0,0,9,0,0,1.000,6286,4,964.000,1.348,1.067,4,4;4;3;4,,,,,,,,,,,,,
nexus-banked:banks=4|halo-stencil|base-addr,nexus-banked,8,1868926.207,512,512,0,0.4004,5985928.388,0.000,906907.224,893340.982,1650634.877,1771466.300,1024,0.000,1,511,,1,63,441,500,11,1.000,10968,4,7258.000,1.022,1.095,52,52;45;49;44,,,,,,,,,,,,,
nexus-banked:banks=4|halo-stencil|range,nexus-banked,8,1887483.035,512,512,0,0.3964,5985928.388,0.000,905368.133,896263.021,1627981.417,1769801.751,1024,0.000,1,511,,0,455,4014,4014,7120,7.800,10540,4,111740.000,1.086,1.076,929,929;823;885;818,,,,,,,,,,,,,
nexus-banked:banks=4|mixed-tiles|base-addr,nexus-banked,8,1009152.363,640,640,0,0.9185,7415315.944,0.000,496268.265,499622.036,924576.723,960489.826,1280,0.000,390,627,,1,0,128,8,88,1.000,12258,4,0.000,1.131,1.062,34,34;31;33;30,,,,,,,,,,,,,
nexus-banked:banks=4|mixed-tiles|range,nexus-banked,8,1010352.454,640,640,0,0.9174,7415315.944,0.000,495248.621,499606.731,930060.673,968685.268,1280,0.000,107,630,,0,396,4560,3072,628,10.381,11777,4,0.000,1.000,1.000,676,676;676;676;676,,,,,,,,,,,,,
nexus-banked:banks=4|tiled-cholesky:tiles=6|base-addr,nexus-banked,8,2551789.334,56,56,0,0.4623,9437184.002,0.000,1076531.977,943630.667,2253585.167,2521407.067,112,0.000,4,56,,1,0,70,0,35,1.000,1133,4,336.000,1.350,1.333,7,3;7;5;6,,,,,,,,,,,,,
nexus-banked:banks=4|tiled-cholesky:tiles=6|range,nexus-banked,8,2551813.334,56,56,0,0.4623,9437184.002,0.000,1076509.334,943563.667,2253586.167,2521425.767,112,0.000,4,56,,0,0,560,0,280,4.317,1082,4,19976.000,1.000,1.000,126,126;126;126;126,,,,,,,,,,,,,
nexus-banked:banks=4|pattern:kind=fft|base-addr,nexus-banked,8,80778.000,128,128,0,0.9904,640000.000,0.000,39498.422,39318.000,73665.300,73852.380,240,0.000,2,120,,1,32,224,8,88,1.000,2550,4,1840.000,1.000,1.000,16,16;16;16;16,,,,,,,,,,,,,
nexus-banked:banks=4|pattern:kind=fft|range,nexus-banked,8,80778.000,128,128,0,0.9904,640000.000,0.000,39562.969,39380.000,73710.400,73924.000,240,0.000,2,120,,0,24,477,384,184,5.250,2431,4,4764.000,1.009,1.031,92,92;88;89;88,,,,,,,,,,,,,
nexus-banked:banks=4|random-dag:seed=1|base-addr,nexus-banked,8,2692879.286,1000,1000,0,0.5546,11948530.229,0.000,1264246.250,1199315.512,2505499.820,2585202.117,2000,0.000,8,976,,1,300,1553,476,393,1.000,20260,4,21704.000,1.488,1.484,135,110;48;71;135,,,,,,,,,,,,,
nexus-banked:banks=4|random-dag:seed=1|range,nexus-banked,8,2669217.706,1000,1000,0,0.5596,11948530.229,490319.396,1260241.250,1206640.646,2453031.314,2545641.672,2000,0.000,7,975,,0,2151,10478,10097,5395,17.508,19711,4,243126.000,1.562,1.396,1024,926;400;585;1024,,,,,,,,,,,,,
nexus-banked:banks=4|random-dag:seed=2|base-addr,nexus-banked,8,2424715.741,1000,1000,0,0.6087,11807666.110,0.000,1126200.105,1129713.983,2206821.159,2327786.859,2000,0.000,14,972,,1,291,1503,557,287,1.000,20186,4,20762.000,1.468,1.458,129,110;46;69;129,,,,,,,,,,,,,
nexus-banked:banks=4|random-dag:seed=2|range,nexus-banked,8,2544358.893,1000,1000,0,0.5801,11807666.110,503990.722,1182455.387,1189441.739,2332189.381,2453286.764,2000,0.000,14,972,,0,2013,9449,9938,5177,17.091,19673,4,243180.000,1.535,1.437,1024,908;356;563;1024,,,,,,,,,,,,,
nexus++:tiny|gaussian:n=24|base-addr,nexus++,8,15536.500,299,299,0,0.0186,2311.500,0.000,63.463,64.000,67.500,70.010,598,0.000,0,2,3,2,0,9,0,0,1.023,6286,,,,,,,,,,,,,,,,,,,
nexus++:tiny|gaussian:n=24|range,nexus++,8,15534.500,299,299,0,0.0186,2311.500,0.000,65.176,66.000,69.500,76.010,598,0.000,0,2,4,0,0,9,0,0,1.000,6286,,,,,,,,,,,,,,,,,,,
nexus++:tiny|halo-stencil|base-addr,nexus++,8,8114723.047,512,512,0,0.0922,5985928.388,15149096.481,249308.117,278559.352,369962.842,396906.929,1024,0.000,0,16,32,6,0,0,502,0,1.868,11720,,,,,,,,,,,,,,,,,,,
nexus++:tiny|halo-stencil|range,nexus++,8,8759079.345,512,512,0,0.0854,5985928.388,16954020.927,269447.583,290276.950,371184.014,397308.174,1024,0.000,0,16,32,0,0,504,503,0,2.073,11743,,,,,,,,,,,,,,,,,,,
nexus++:tiny|mixed-tiles|base-addr,nexus++,8,1137899.454,640,640,0,0.8146,7415315.944,1095548.592,27859.213,24623.896,52828.947,72175.489,1280,0.000,0,16,16,2,0,127,0,0,1.132,12379,,,,,,,,,,,,,,,,,,,
nexus++:tiny|mixed-tiles|range,nexus++,8,1464038.411,640,640,0,0.6331,7415315.944,1424570.736,36087.935,35724.890,57446.963,75409.852,1280,0.000,3,16,22,0,246,502,0,0,2.992,11675,,,,,,,,,,,,,,,,,,,
nexus++:tiny|tiled-cholesky:tiles=6|base-addr,nexus++,8,2417801.334,56,56,0,0.4879,9437184.002,1393690.667,519356.036,491215.333,949899.500,1032854.667,112,0.000,4,16,27,2,42,67,0,28,1.286,1132,,,,,,,,,,,,,,,,,,,
nexus++:tiny|tiled-cholesky:tiles=6|range,nexus++,8,2477016.001,56,56,0,0.4762,9437184.002,2928760.668,528471.703,545887.000,951508.000,1052203.267,112,0.000,4,16,32,0,29,73,0,22,2.336,1144,,,,,,,,,,,,,,,,,,,
nexus++:tiny|pattern:kind=fft|base-addr,nexus++,8,80786.000,128,128,0,0.9903,640000.000,69546.000,9673.594,9972.000,14725.900,14853.740,240,0.000,2,16,32,2,0,82,40,0,1.031,2585,,,,,,,,,,,,,,,,,,,
nexus++:tiny|pattern:kind=fft|range,nexus++,8,80856.000,128,128,0,0.9894,640000.000,131594.000,9682.594,9972.000,10044.000,13258.480,240,0.000,1,16,32,0,0,17,8,0,1.365,2761,,,,,,,,,,,,,,,,,,,
nexus++:tiny|random-dag:seed=1|base-addr,nexus++,8,2766078.472,1000,1000,0,0.5400,11948530.229,3590846.452,43549.648,33992.553,102513.029,125753.374,2000,0.000,5,16,32,3,63,334,256,142,1.191,21169,,,,,,,,,,,,,,,,,,,
nexus++:tiny|random-dag:seed=1|range,nexus++,8,3001321.461,1000,1000,0,0.4976,11948530.229,5813124.448,47289.206,42054.145,95394.746,118718.324,2000,0.000,4,16,32,0,12,274,274,130,1.215,21850,,,,,,,,,,,,,,,,,,,
nexus++:tiny|random-dag:seed=2|base-addr,nexus++,8,2616282.578,1000,1000,0,0.5641,11807666.110,3320519.483,41126.457,33197.251,90316.689,117305.677,2000,0.000,3,16,32,3,59,329,249,136,1.190,21103,,,,,,,,,,,,,,,,,,,
nexus++:tiny|random-dag:seed=2|range,nexus++,8,2801461.243,1000,1000,0,0.5269,11807666.110,5362406.352,44117.651,39524.225,86688.422,105602.043,2000,0.000,2,16,32,0,14,271,261,152,1.225,21888,,,,,,,,,,,,,,,,,,,
)";

struct EngineCase {
  std::string key;
  std::string engine;
  engine::EngineParams params;
};

std::vector<EngineCase> engine_cases() {
  engine::EngineParams base;
  base.num_workers = 8;
  engine::EngineParams one_bank = base;
  one_bank.banks = 1;
  engine::EngineParams four_banks = base;
  four_banks.banks = 4;
  engine::EngineParams tiny = base;
  tiny.task_pool_capacity = 16;
  tiny.dep_table_capacity = 32;
  tiny.kick_off_capacity = 2;
  return {{"nexus++", "nexus++", base},
          {"classic-nexus", "classic-nexus", base},
          {"nexus-banked:banks=1", "nexus-banked", one_bank},
          {"nexus-banked:banks=4", "nexus-banked", four_banks},
          {"nexus++:tiny", "nexus++", tiny}};
}

const char* const kWorkloads[] = {"gaussian:n=24",
                                  "halo-stencil",
                                  "mixed-tiles",
                                  "tiled-cholesky:tiles=6",
                                  "pattern:kind=fft",
                                  "random-dag:seed=1",
                                  "random-dag:seed=2"};

std::vector<std::string> current_rows() {
  std::vector<std::string> rows;
  for (const auto& c : engine_cases()) {
    for (const char* workload : kWorkloads) {
      for (const auto mode :
           {core::MatchMode::kBaseAddr, core::MatchMode::kRange}) {
        engine::EngineParams params = c.params;
        params.match_mode = mode;
        const auto eng =
            engine::EngineRegistry::builtins().make(c.engine, params);
        const auto report = eng->run(
            workloads::WorkloadLibrary::builtins().make_stream(workload));
        std::string row = c.key + "|" + workload + "|" + core::to_string(mode);
        for (const auto& field : report.csv_row()) row += "," + field;
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string item; std::getline(in, item, sep);) out.push_back(item);
  return out;
}

/// "column: expected -> actual" for every field where two rows differ.
std::string describe_mismatch(const std::string& expected,
                              const std::string& actual) {
  const auto want = split(expected, ',');
  const auto got = split(actual, ',');
  const auto header = engine::RunReport::csv_header();
  std::string out;
  for (std::size_t i = 1; i < want.size() || i < got.size(); ++i) {
    const std::string w = i < want.size() ? want[i] : "<none>";
    const std::string g = i < got.size() ? got[i] : "<none>";
    if (w == g) continue;
    const std::string column =
        i - 1 < header.size() ? header[i - 1] : "column " + std::to_string(i);
    out += "\n  " + column + ": " + w + " -> " + g;
  }
  return out;
}

TEST(PinnedReports, EveryRowReproducesExactly) {
  std::vector<std::string> expected;
  for (auto& line : split(kPinnedRows, '\n')) {
    if (!line.empty()) expected.push_back(std::move(line));
  }
  const auto actual = current_rows();
  if (std::getenv("NEXUSPP_PIN_PRINT") != nullptr) {
    for (const auto& row : actual) std::cout << row << "\n";
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i])
        << split(expected[i], ',').front()
        << describe_mismatch(expected[i], actual[i]);
  }
}

}  // namespace
}  // namespace nexuspp
