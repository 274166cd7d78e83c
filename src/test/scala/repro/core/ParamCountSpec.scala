package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.Net

class ParamCountSpec extends AnyFunSuite {

  test("mlp count matches the actual network's paramCount") {
    val net = Net.mlp(128, 64, 16, seed = 1)
    assert(ParamCount.mlp(128, 64, 16) == net.paramCount)
  }

  test("kmeans count is m*d") {
    assert(ParamCount.kmeans(128, 256) == 32768L)
  }

  test("hierarchical count is root + m1 leaves") {
    val want = ParamCount.mlp(128, 128, 16) + 16 * ParamCount.mlp(128, 128, 16)
    assert(ParamCount.hierarchicalMlp(128, 128, 16, 16) == want)
  }

  test("Table 2 ordering holds: Neural LSH > Ours > K-means") {
    val rows = ParamCount.table2().toMap
    val nlsh = rows("Neural LSH (hidden 512)")
    val ours = rows("Ours (hidden 128)")
    val km = rows("K-Means")
    assert(nlsh > ours && ours > km)
  }

  test("Table 2 K-means entry reproduces the paper's 33k exactly") {
    assert(ParamCount.table2().toMap.apply("K-Means") == 32768L) // ≈33k in the paper
  }

  test("Table 2 Neural-LSH-to-ours ratio is close to the paper's ≈4x") {
    val rows = ParamCount.table2().toMap
    val ratio = rows("Neural LSH (hidden 512)").toDouble / rows("Ours (hidden 128)")
    assert(ratio > 2.5 && ratio < 6.0, s"ratio $ratio out of the paper's ballpark (729k/183k≈4)")
  }
}
