package repro.bench

import repro.{SparkSpec, SynthData}
import repro.core.{KnnMatrix, UspConfig, UspTrainer}

/** The USP training step at the benchmark's build-sift16 shape: siftLite
  * n = 20 000, d = 32, k' = 10, 16 bins, batch 800, 2 epochs (50 steps),
  * hidden 128, model seed 42. One untimed training warms the JIT; then each
  * of `Reps` trainings reports its wall time and the time its steps spent in
  * each phase ([[repro.nn.PhaseMs]], summed over the epochs). Prints the
  * median of each, and the bits of the final loss and a hash of the
  * assignments, which must not change when the kernels change.
  */
class TrainStepBench extends SparkSpec {
  private val Reps = 5

  test("USP training step: phase split at the build-sift16 shape") {
    val data = SynthData.siftLite(20000, seed = 7, d = 32)
    val knn = KnnMatrix.selfKnn(spark, data, 10)
    val cfg = UspConfig(m = 16, kPrime = 10, eta = 7.0, epochs = 2, batchSize = 800,
                        lr = 3e-3, hidden = 128, seed = 42)
    UspTrainer.train(data, knn, cfg)
    val runs = Seq.fill(Reps) {
      val t0 = System.nanoTime()
      val model = UspTrainer.train(data, knn, cfg)
      val trainMs = (System.nanoTime() - t0) / 1e6
      val p = model.phases
      (trainMs, Seq(p.map(_.targets).sum, p.map(_.forward).sum, p.map(_.loss).sum,
                    p.map(_.backward).sum, p.map(_.adam).sum), model)
    }
    def median(xs: Seq[Double]): Double = xs.sorted.apply(xs.length / 2)
    val names = Seq("targets", "forward", "loss", "backward", "adam")
    println(f"== USP training, ${Runtime.getRuntime.availableProcessors()} cores, median of $Reps ==")
    println(f"train_ms ${median(runs.map(_._1))}%.1f")
    names.zipWithIndex.foreach { case (n, i) => println(f"${n}_ms ${median(runs.map(_._2(i)))}%.1f") }
    val m = runs.head._3
    println(s"final_loss_bits ${java.lang.Double.doubleToLongBits(m.lossTrace.last)}")
    println(s"assignments_hash ${java.util.Arrays.hashCode(m.assignments)}")
    assert(runs.forall(r => r._3.assignments.sameElements(m.assignments)))
  }
}
