package repro.perfbench

import repro.baselines.{DeepMatcherM, TokenCorpus}
import repro.nn.Rng

/** Table VI's denominator, measured once rather than as a workload: the
  * DeepMatcher analogue's training time on the `supervised` workload's
  * train set, with Experiments.table56's settings.
  *
  * Usage: `DeepMatcherTime <seed>`; prints seconds and test F1.
  */
object DeepMatcherTime {
  def main(args: Array[String]): Unit = {
    val seed = args.headOption.map(_.toLong).getOrElse(1L)
    val (spark, in) = Workloads.setup(Workloads.Supervised.spec, seed, new Trace(false))
    val corpus = new TokenCorpus(in.ds, 8)(spark)
    val rng    = new Rng(Workloads.derive(seed, 0xD30L))
    val model  = new DeepMatcherM(corpus, in.ds.arity, rng.split())
    val t0     = System.nanoTime()
    model.trainOn(corpus.pairs(in.train), rng.split())
    val secs   = (System.nanoTime() - t0) / 1e9
    println(f"DeepMatcher train_s=$secs%.2f train_pairs=${in.train.length} test_f1=${model.evaluate(in.test, corpus).f1}%.3f")
    spark.stop()
  }
}
